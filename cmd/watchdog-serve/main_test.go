package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"watchdog/internal/serve"
)

// syncBuf is a goroutine-safe writer: the server goroutine writes the
// listen address while the test polls for it.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startServer runs the serve binary's entry point on an ephemeral
// port and returns its base URL plus a channel with the exit code.
func startServer(t *testing.T, ctx context.Context, args ...string) (string, <-chan int, *syncBuf) {
	t.Helper()
	stderr := &syncBuf{}
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(stderr.String()); m != nil {
			return m[1], done, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stderr: %s", stderr.String())
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with %d; stderr: %s", code, stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestServeLifecycle: the binary serves requests, and cancelling its
// signal context (what SIGTERM does via main) drains cleanly with
// exit code 0.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done, stderr := startServer(t, ctx)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/sim", "application/json",
		strings.NewReader(`{"workload":"lbm","config":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr serve.SimResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: status %d, err %v", resp.StatusCode, err)
	}
	if sr.Cell.Workload != "lbm" || sr.Cell.Cycles <= 0 {
		t.Fatalf("cell: %+v", sr.Cell)
	}

	cancel() // what SIGTERM does
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("drained server exited %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after cancellation")
	}
	if !strings.Contains(stderr.String(), "drained") {
		t.Errorf("no drain confirmation on stderr: %s", stderr.String())
	}
}

// TestRunFlagAndAddrErrors: bad flags exit 2 and an unusable listen
// address exits 1.
func TestRunFlagAndAddrErrors(t *testing.T) {
	var stderr bytes.Buffer
	if code := run(context.Background(), []string{"-bogus"}, &stderr); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	stderr.Reset()
	if code := run(context.Background(), []string{"-addr", "256.0.0.1:http"}, &stderr); code != 1 {
		t.Errorf("bad addr: exit %d, want 1 (stderr %s)", code, stderr.String())
	}
}

// TestServerLogFlag: -log makes the server emit structured JSON
// request records on stderr.
func TestServerLogFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done, stderr := startServer(t, ctx, "-log")

	resp, err := http.Post(base+"/v1/sim", "application/json",
		strings.NewReader(`{"workload":"lbm","config":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(stderr.String(), `"msg":"request"`) &&
			strings.Contains(stderr.String(), `"request_id"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no structured request log on stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	<-done
}

// TestServeKeysAndStoreFlags: a bad keys file, a store directory that
// cannot be created, or a numeric flag value that would silently lift
// a limit fails with exit 1, names the flag, and never binds the
// listener. The context is already canceled, so a server that wrongly
// starts drains at once instead of hanging the test.
func TestServeKeysAndStoreFlags(t *testing.T) {
	dir := t.TempDir()
	blocked := filepath.Join(dir, "store") // a regular file where the store directory should go
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-keys", filepath.Join(dir, "missing.txt")}, filepath.Join(dir, "missing.txt")},
		{[]string{"-store-dir", blocked}, blocked},
		{[]string{"-workers", "-3"}, "-workers"},
		{[]string{"-max-scale", "0"}, "-max-scale"},
		{[]string{"-max-scale", "-2"}, "-max-scale"},
		{[]string{"-timeout", "0s"}, "-timeout"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-drain-timeout", "0s"}, "-drain-timeout"},
		{[]string{"-rate", "-1"}, "-rate"},
		{[]string{"-rate", "NaN"}, "-rate"},
		{[]string{"-rate", "Inf"}, "-rate"},
		{[]string{"-rate", "-Inf"}, "-rate"},
		{[]string{"-quota", "-1"}, "-quota"},
		{[]string{"-store-max-mb", "0"}, "-store-max-mb"},
	} {
		var stderr bytes.Buffer
		code := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &stderr)
		if code != 1 {
			t.Errorf("%v: exit %d, want 1 (stderr %s)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), tc.want)
		}
		if strings.Contains(stderr.String(), "listening on") {
			t.Errorf("%v: server bound its listener before validation failed", tc.args)
		}
	}
}
