package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"watchdog/internal/experiments"
	"watchdog/internal/report"
	"watchdog/internal/security"
	"watchdog/internal/sim"
	"watchdog/internal/workload"
)

// FuzzStoreRead feeds the disk store arbitrary entry files, seeded
// with an envelope Write produced and four broken variants of it. Each
// input is written as the entry for one fixed key, then the store is
// opened over it (so disk_bytes counts the file) and read. Read must
// not panic. It may serve a body only from a valid envelope (this
// schema version, this key, a matching sha256), and then it serves
// that envelope's body; any other entry is deleted and counted as
// corrupt. disk_bytes never goes below zero. Run it with
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzStoreRead$' -fuzztime 10s
func FuzzStoreRead(f *testing.F) {
	const key = "sim/mcf/isa/1/exact/true"
	seed, err := OpenStore(f.TempDir(), 1)
	if err != nil {
		f.Fatal(err)
	}
	seed.Write(key, []byte(`{"schema":"watchdog-serve","version":1}`))
	valid, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	variant := func(edit func(*storeEnvelope)) []byte {
		var env storeEnvelope
		if err := json.Unmarshal(valid, &env); err != nil {
			f.Fatal(err)
		}
		edit(&env)
		b, err := json.Marshal(&env)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(variant(func(e *storeEnvelope) { e.Key = "sim/lbm/isa/1/exact/true" }))
	f.Add(variant(func(e *storeEnvelope) { e.Body[0] ^= 1 }))
	f.Add(variant(func(e *storeEnvelope) { e.Schema = 2 }))

	// One directory serves every input: a worker process runs the fuzz
	// function serially, and each input's entry is removed after it.
	dir := f.TempDir()
	path := filepath.Join(dir, filepath.Base(seed.path(key)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		st, err := OpenStore(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.bytes.Load(); got != int64(len(data)) {
			t.Fatalf("disk_bytes = %d after opening a %d-byte entry", got, len(data))
		}

		body, ok := st.Read(key)

		var env struct {
			Schema int    `json:"schema"`
			Key    string `json:"key"`
			Sum    string `json:"sum"`
			Body   []byte `json:"body"`
		}
		decoded := json.Unmarshal(data, &env) == nil
		sum := sha256.Sum256(env.Body)
		isValid := decoded && env.Schema == report.Version && env.Key == key &&
			env.Sum == hex.EncodeToString(sum[:])
		switch {
		case ok && !isValid:
			t.Fatalf("Read served %q from an invalid entry %q", body, data)
		case ok && !bytes.Equal(body, env.Body):
			t.Fatalf("Read served %q, want the envelope's body %q", body, env.Body)
		case !ok && isValid:
			t.Fatalf("Read refused a valid entry %q", data)
		case !ok:
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("refused entry left on disk (stat error %v)", err)
			}
			if got := st.corrupt.Load(); got != 1 {
				t.Fatalf("corrupt_evicted = %d after one refused entry, want 1", got)
			}
		}
		if got := st.bytes.Load(); got < 0 {
			t.Fatalf("disk_bytes = %d, below zero", got)
		}
	})
}

// FuzzResolveRequestID feeds request-id resolution arbitrary inbound
// X-Request-ID values, seeded with TestRequestIDEcho's. The resolved
// id must pass acceptRequestID (safe for log lines and flight
// records), and it must equal the inbound value exactly when that
// value is acceptable. Run it with
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzResolveRequestID$' -fuzztime 10s
func FuzzResolveRequestID(f *testing.F) {
	for _, seed := range []string{
		"sweep-42.cell-7",
		"bad id {spaces}",
		strings.Repeat("x", maxRequestIDLen+1),
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, inbound string) {
		id := resolveRequestID(inbound)
		if !acceptRequestID(id) {
			t.Fatalf("resolveRequestID(%q) = %q, which acceptRequestID refuses", inbound, id)
		}
		if (id == inbound) != acceptRequestID(inbound) {
			t.Fatalf("resolveRequestID(%q) = %q: kept iff acceptable is violated", inbound, id)
		}
	})
}

// requestSeed is a fuzz seed body and the status parsing it gives (0
// when the request is accepted).
type requestSeed struct {
	body   string
	status int
}

// requestSeeds builds the seeds both request targets share from a
// valid body: the body itself, then an unknown field, trailing
// garbage, a second object, trailing white space, a negative
// timeout_ms and a body past maxBody. more adds a target's own values.
//
// The targets run with -fuzzminimizetime 1x: minimizing an input grown
// from the 1 MB seed spends the whole default 60 s budget, and the
// fuzzer makes no progress meanwhile.
func requestSeeds(valid string, more ...requestSeed) []requestSeed {
	return append([]requestSeed{
		{valid, 0},
		{strings.Replace(valid, "{", `{"bogus":1,`, 1), http.StatusBadRequest},
		{valid + " garbage", http.StatusBadRequest},
		{valid + valid, http.StatusBadRequest},
		{valid + "\n\t ", 0},
		{strings.Replace(valid, "{", `{"timeout_ms":-1,`, 1), http.StatusBadRequest},
		{strings.Replace(valid, "{", `{"padding":"`+strings.Repeat("x", maxBody)+`",`, 1),
			http.StatusRequestEntityTooLarge},
	}, more...)
}

func simSeeds(maxScale int) []requestSeed {
	return requestSeeds(`{"workload":"lbm","config":"conservative"}`,
		requestSeed{`{"workload":"mcf","config":"isa","scale":-1}`, http.StatusBadRequest},
		requestSeed{`{"workload":"mcf","config":"isa","scale":` + strconv.Itoa(maxScale+1) + `}`, http.StatusBadRequest},
		requestSeed{`{"workload":"mcf","config":"isa","scale":2,"fidelity":"bogus"}`, http.StatusBadRequest},
		requestSeed{`{"workload":"nope","config":"isa"}`, http.StatusBadRequest},
		requestSeed{`{"workload":"mcf","config":"baseline","fidelity":"sampled","overhead":true,"timeout_ms":5}`, 0},
	)
}

func julietSeeds() []requestSeed {
	return requestSeeds(`{"policy":"xtag","tag_bits":4}`,
		requestSeed{`{"policy":"xtag","tag_bits":9}`, http.StatusBadRequest},
		requestSeed{`{"policy":"watchdog","tag_bits":4}`, http.StatusBadRequest},
		requestSeed{`{"policy":"nope"}`, http.StatusBadRequest},
		requestSeed{`{"policy":"xtag"}`, 0},
		requestSeed{`{}`, 0},
	)
}

// TestRequestSeedStatuses pins what each fuzz seed exercises, so a
// seed meant to reach a refusal cannot pass by being accepted.
func TestRequestSeedStatuses(t *testing.T) {
	maxScale := Config{}.withDefaults().MaxScale
	for _, s := range simSeeds(maxScale) {
		if _, st, err := parseSim(strings.NewReader(s.body), maxScale); st != s.status {
			t.Errorf("/v1/sim %.80s: status %d (%v), want %d", s.body, st, err, s.status)
		}
	}
	for _, s := range julietSeeds() {
		if _, st, err := parseJuliet(strings.NewReader(s.body)); st != s.status {
			t.Errorf("/v1/juliet %.80s: status %d (%v), want %d", s.body, st, err, s.status)
		}
	}
}

// checkRefusal fails t unless a refused body got a 400, or a 413 for a
// body over maxBody, with a message to show.
func checkRefusal(t *testing.T, body []byte, st int, err error) {
	t.Helper()
	switch {
	case st == http.StatusRequestEntityTooLarge && len(body) <= maxBody:
		t.Fatalf("413 for a %d-byte body, within the %d-byte limit", len(body), maxBody)
	case st != http.StatusBadRequest && st != http.StatusRequestEntityTooLarge:
		t.Fatalf("refused with status %d (%v), want 400 or 413", st, err)
	case err.Error() == "":
		t.Fatalf("refused with status %d and an empty message", st)
	}
}

// FuzzSimRequest feeds /v1/sim's decode-and-check step arbitrary
// bodies without simulating anything. It must not panic; a refusal is
// a 400, or a 413 for a body over maxBody; an accepted request names a
// known workload and configuration at a scale in [1, MaxScale], with a
// known fidelity, no negative timeout and no overhead on a baseline
// cell, and its normalised form re-encoded parses to itself. Run it
// with
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzSimRequest$' -fuzztime 10s -fuzzminimizetime 1x
func FuzzSimRequest(f *testing.F) {
	maxScale := Config{}.withDefaults().MaxScale
	for _, seed := range simSeeds(maxScale) {
		f.Add([]byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, st, err := parseSim(bytes.NewReader(body), maxScale)
		if err != nil {
			checkRefusal(t, body, st, err)
			return
		}
		if wl, ok := workload.ByName(req.Workload); !ok || wl.Name != req.wl.Name {
			t.Fatalf("accepted workload %q, resolved to %q", req.Workload, req.wl.Name)
		}
		if !experiments.IsConfig(req.Config) {
			t.Fatalf("accepted unknown config %q", req.Config)
		}
		if req.Scale < 1 || req.Scale > maxScale {
			t.Fatalf("accepted scale %d, outside [1, %d]", req.Scale, maxScale)
		}
		if fid, err := sim.ParseFidelity(req.Fidelity); err != nil || fid != req.fid || fid == "" {
			t.Fatalf("accepted fidelity %q resolved to %q (%v)", req.Fidelity, req.fid, err)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted timeout_ms %d", req.TimeoutMS)
		}
		if req.Overhead && req.Config == string(experiments.CfgBaseline) {
			t.Fatal("kept overhead on a baseline cell")
		}
		again, err := json.Marshal(&req.SimRequest)
		if err != nil {
			t.Fatal(err)
		}
		if req2, _, err := parseSim(bytes.NewReader(again), maxScale); err != nil || req2.SimRequest != req.SimRequest {
			t.Fatalf("normalised request %s parses to %+v (%v), want %+v", again, req2.SimRequest, err, req.SimRequest)
		}
	})
}

// FuzzJulietRequest feeds /v1/juliet's decode-and-check step
// arbitrary bodies without running the suite. It must not panic; a
// refusal is a 400, or a 413 for a body over maxBody; an accepted
// request names a known policy, carries the tag width that runs (1..8
// on xtag, 0 elsewhere) and no negative timeout, and its normalised
// form re-encoded parses to itself. Run it with
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzJulietRequest$' -fuzztime 10s -fuzzminimizetime 1x
func FuzzJulietRequest(f *testing.F) {
	for _, seed := range julietSeeds() {
		f.Add([]byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, st, err := parseJuliet(bytes.NewReader(body))
		if err != nil {
			checkRefusal(t, body, st, err)
			return
		}
		if _, _, err := security.PolicyConfig(req.Policy); err != nil {
			t.Fatalf("accepted policy %q: %v", req.Policy, err)
		}
		if req.TagBits != req.cfg.TagBits {
			t.Fatalf("request carries tag width %d, %d runs", req.TagBits, req.cfg.TagBits)
		}
		if xtag := req.Policy == "xtag"; xtag && (req.TagBits < 1 || req.TagBits > 8) || !xtag && req.TagBits != 0 {
			t.Fatalf("accepted tag width %d under policy %q", req.TagBits, req.Policy)
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted timeout_ms %d", req.TimeoutMS)
		}
		again, err := json.Marshal(&req.JulietRequest)
		if err != nil {
			t.Fatal(err)
		}
		if req2, _, err := parseJuliet(bytes.NewReader(again)); err != nil || req2.JulietRequest != req.JulietRequest {
			t.Fatalf("normalised request %s parses to %+v (%v), want %+v", again, req2.JulietRequest, err, req.JulietRequest)
		}
	})
}
