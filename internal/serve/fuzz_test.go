package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"watchdog/internal/report"
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
