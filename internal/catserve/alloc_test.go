package catserve

import (
	"net/http"
	"runtime/debug"
	"testing"
)

// TestQueryCacheHitZeroAllocSteadyState pins the serving hot path: once a
// target is cached on the current snapshot, answering it again — one atomic
// snapshot load and one lock-free cache read — allocates nothing. One
// allocation here would sink the queries-per-second target long before it
// showed in the time per query.
func TestQueryCacheHitZeroAllocSteadyState(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, _ := testServer(t, 2000, Options{})
	targets := []string{
		"/cone?ra=0.4127&dec=0.6351&r=0.0342",
		"/box?ramin=0.2113&decmin=0.5520&ramax=0.3113&decmax=0.6520",
		"/brightest?n=8",
		"/brightest?n=32&band=4",
	}
	for _, tg := range targets {
		if _, status := srv.Query(tg); status != http.StatusOK {
			t.Fatalf("warming %s: status %d", tg, status)
		}
	}
	k := 0
	if allocs := testing.AllocsPerRun(200, func() {
		srv.Query(targets[k%len(targets)])
		k++
	}); allocs != 0 {
		t.Errorf("cached Query allocates %v objects per run in steady state, want 0", allocs)
	}
	if _, misses := srv.CacheStats(); misses != int64(len(targets)) {
		t.Errorf("%d cache misses, want only the %d warming queries", misses, len(targets))
	}
}

// raceEnabled reports whether this test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
