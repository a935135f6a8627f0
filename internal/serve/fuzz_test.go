package serve

import (
	"fmt"
	"maps"
	"strings"
	"testing"
)

// FuzzParseKeys feeds the API-key file grammar arbitrary text, seeded
// with TestParseKeys' inputs. ParseKeys must not panic, and a key file
// it accepts must round-trip: rendered back as one `key tenant` line
// per mapping, it parses to the same map. Run it with
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzParseKeys$' -fuzztime 10s
func FuzzParseKeys(f *testing.F) {
	for _, seed := range []string{
		"# comment\n\nsk-a alpha\nsk-b\tbeta\nsk-a2 alpha\n",
		"",
		"# only comments\n",
		"sk-a\n",
		"sk-a alpha extra\n",
		"sk-a alpha\nsk-a b\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		keys, err := ParseKeys(strings.NewReader(text))
		if err != nil {
			return
		}
		var b strings.Builder
		for key, tenant := range keys {
			fmt.Fprintf(&b, "%s %s\n", key, tenant)
		}
		again, err := ParseKeys(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("rendered key file %q refused: %v", b.String(), err)
		}
		if !maps.Equal(keys, again) {
			t.Fatalf("round trip changed the mappings: %q -> %q", keys, again)
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
