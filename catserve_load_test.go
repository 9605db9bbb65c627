package celeste

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"celeste/internal/geom"
	"celeste/internal/imageio"
	"celeste/internal/model"
)

// TestCatalogQueryLoadConcurrentWithFit is the catalog-as-a-service load
// test: a full inference run streams posterior updates into a CatalogStore
// while query goroutines hammer the server's cached path. It asserts
//
//   - sustained cached query throughput of at least 100k queries/sec for the
//     whole duration of the fit (the CI job runs this under -race),
//   - that the cache actually carried the load (hits dominate misses), and
//   - that a query issued after the run returns entries byte-identical to
//     the catalog file the run writes — the RCU store's final state IS the
//     output catalog, down to the JSON bytes.
func TestCatalogQueryLoadConcurrentWithFit(t *testing.T) {
	if testing.Short() {
		t.Skip("load test: full fit plus sustained query load")
	}
	cfg := DefaultSurveyConfig(23)
	cfg.Region = geom.NewBox(0, 0, 0.012, 0.012)
	cfg.DeepRegion = SkyBox{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 128, 128
	cfg.SourceDensity = 25000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(10), math.Log(12)}
	sv := GenerateSurvey(cfg)
	init := sv.NoisyCatalog(24)
	if len(init) < 3 {
		t.Skip("too few sources drawn")
	}

	store := NewCatalogStore(sv.Config.Region, init, CatalogOptions{})
	srv := NewCatalogServer(store)

	// The fixed cone cycle the load drives. Each published snapshot starts
	// with a cold cache, so the mix the counters see is the real one: a cold
	// execution per target per snapshot, cache hits for everything else.
	targets := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		targets = append(targets, fmt.Sprintf("/cone?ra=%.5f&dec=%.5f&r=%.4f",
			0.012*float64(i)/32, 0.012*float64((i*7)%32)/32, 0.003))
	}
	for _, tg := range targets {
		if _, status := srv.Query(tg); status != 200 {
			t.Fatalf("warming %s: status %d", tg, status)
		}
	}

	// The load starts first and the fit only once every load goroutine has
	// completed a query: the fit lasts a few milliseconds, and under a busy
	// scheduler it could otherwise end before any query ran.
	start := time.Now()
	var queries atomic.Int64
	stop := make(chan struct{})
	var wg, loaded sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		loaded.Add(1)
		go func(off int) {
			defer wg.Done()
			ready := sync.OnceFunc(loaded.Done)
			defer ready() // a failed query must not hold the fit back
			for i := off; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body, status := srv.Query(targets[i%len(targets)])
				if status != 200 || len(body) == 0 {
					t.Errorf("query under load: status %d, %d bytes", status, len(body))
					return
				}
				queries.Add(1)
				ready()
			}
		}(g * 8)
	}
	loaded.Wait()

	type runOut struct {
		res *InferResult
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := InferWithOptions(sv, init, InferConfig{
			Threads: 2, Processes: 2, Rounds: 1, MaxIter: 10, Seed: 23,
		}, InferOptions{Catalog: store})
		done <- runOut{res, err}
	}()

	out := <-done
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res

	qps := float64(queries.Load()) / elapsed.Seconds()
	t.Logf("%d queries in %s concurrent with the fit (%.0f queries/sec, store version %d)",
		queries.Load(), elapsed.Round(time.Millisecond), qps, store.Snapshot().Version())
	if qps < 100_000 {
		t.Errorf("sustained %.0f queries/sec under fit load, want >= 100000", qps)
	}
	hits, misses := srv.CacheStats()
	if hits <= misses {
		t.Errorf("cache did not carry the load: %d hits <= %d misses", hits, misses)
	}
	if v := store.Snapshot().Version(); v < 2 {
		t.Errorf("store never saw a live update (version %d)", v)
	}

	// Byte-identity with the written catalog: serve everything, compare each
	// served entry's raw JSON with its file line.
	path := filepath.Join(t.TempDir(), "catalog.jsonl")
	if err := imageio.WriteCatalog(path, res.Catalog); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != len(res.Catalog) {
		t.Fatalf("catalog file has %d lines for %d entries", len(lines), len(res.Catalog))
	}
	byID := make(map[int][]byte, len(lines))
	for _, line := range lines {
		var e struct {
			ID int `json:"ID"`
		}
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		byID[e.ID] = line
	}

	body, status := srv.Query("/box?ramin=-10&decmin=-10&ramax=10&decmax=10")
	if status != 200 {
		t.Fatalf("post-run box query: status %d", status)
	}
	var resp struct {
		Version uint64            `json:"version"`
		Count   int               `json:"count"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != len(res.Catalog) {
		t.Fatalf("post-run query returned %d entries, want %d", resp.Count, len(res.Catalog))
	}
	for _, rawEnt := range resp.Entries {
		var e struct {
			ID int `json:"ID"`
		}
		if err := json.Unmarshal(rawEnt, &e); err != nil {
			t.Fatal(err)
		}
		line, ok := byID[e.ID]
		if !ok {
			t.Fatalf("served entry ID %d not in the catalog file", e.ID)
		}
		if !bytes.Equal(rawEnt, line) {
			t.Fatalf("served entry %d differs from the catalog file:\nserved: %s\nfile:   %s",
				e.ID, rawEnt, line)
		}
		delete(byID, e.ID)
	}
	if len(byID) != 0 {
		t.Fatalf("%d catalog file entries never served", len(byID))
	}
}
