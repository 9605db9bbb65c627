package catserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// FuzzServerQuery hardens the one decoder that faces the network: an
// arbitrary request target must produce 200, 400 or 404 with a JSON body and
// never panic; an error response is never cached; and outside /stats (whose
// counters move under the reader) the same target asked twice returns the
// same bytes, the second time from the cache when the first succeeded.
func FuzzServerQuery(f *testing.F) {
	// The shapes of the root package's BenchmarkHotPath query cycle.
	f.Add("/cone?ra=0.4127&dec=0.6351&r=0.0342")
	f.Add("/cone?ra=0.9&dec=0.1&r=0.05&limit=3")
	f.Add("/box?ramin=0.2113&decmin=0.5520&ramax=0.3113&decmax=0.6520")
	f.Add("/brightest?n=8")
	f.Add("/brightest?n=32&band=4")
	f.Add("/stats")
	// Malformed.
	f.Add("/cone?ra=NaN&dec=0.5&r=0.1")
	f.Add("/cone?ra=0.5&dec=0.5&r=-1")
	f.Add("/cone?ra=0.5&dec=0.5&r=0.1&limit=-1")
	f.Add("/box?ramin=1e999&decmin=0&ramax=1&decmax=1")
	f.Add("/brightest?n=0")
	f.Add("/brightest?n=8&band=5")
	f.Add("/cone?ra=%zz")
	f.Add("/cone?ra=0.5;dec=0.5")
	f.Add("")
	f.Add("?")
	f.Add("/nowhere?x=1")
	f.Add("/cone?" + strings.Repeat("ra=0.5&", 1<<16/7))

	entries := mkEntries(200, 42)
	f.Fuzz(func(t *testing.T, target string) {
		srv := NewServer(unitStore(entries, Options{}))
		cache := srv.store.Snapshot().cache

		body, status := srv.Query(target)
		if status != http.StatusOK && status != http.StatusBadRequest && status != http.StatusNotFound {
			t.Fatalf("status %d for %q", status, target)
		}
		if !json.Valid(body) {
			t.Fatalf("invalid JSON for %q: %q", target, body)
		}
		if path, _, _ := cutQuery(target); path == "/stats" {
			return
		}
		if status != http.StatusOK {
			if _, ok := cache.get(target); ok || cache.len() != 0 {
				t.Fatalf("status %d response cached for %q", status, target)
			}
		}
		again, statusAgain := srv.Query(target)
		if statusAgain != status || !bytes.Equal(again, body) {
			t.Fatalf("%q answered (%d, %q) then (%d, %q)", target, status, body, statusAgain, again)
		}
		if hits, _ := srv.CacheStats(); status == http.StatusOK && hits != 1 {
			t.Fatalf("repeat of successful %q was served uncached (%d hits)", target, hits)
		}
	})
}
