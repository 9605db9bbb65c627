package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	"celeste/internal/catserve"
	"celeste/internal/model"
	"celeste/internal/rng"
)

// Each phase is cut into this many windows; a phase metric is the median of
// its per-window values, so one stall moves one sample, not the result.
const phaseWindows = 5

// Every sampleEvery-th response of a client is kept and checked against a
// scan of the catalog (and, in the traced run, recorded as a span).
const sampleEvery = 100

// response is one completed request as its client saw it.
type response struct {
	at  time.Duration // completion, from the phase start
	lat time.Duration
}

// kept is a sampled response awaiting its check.
type kept struct {
	q    query
	body []byte
}

// phase is the record of one closed-loop phase.
type phase struct {
	name      string
	dur       time.Duration
	responses []response // all clients
	kept      []kept
	failed    int
	why       string
	publishes []response // the writer's Store.Apply calls (churn only)
	v0        uint64     // store version when the phase began
	hits      int64      // cache hits and misses during the phase
	misses    int64
}

// serveRig is the system under test: the store, its HTTP server on a
// loopback port, and the closed-loop clients.
type serveRig struct {
	spec    *serveSpec
	seed    uint64
	base    []model.CatalogEntry
	store   *catserve.Store
	server  *catserve.Server
	url     string
	hot     []query
	clients []*http.Client
	rec     *recorder // nil with tracing off
}

// runPhase drives the closed loop for dur: every client sends its next
// request when its last one completes. With a writer, Store.Apply publishes a
// batch every spec.Every beside the reads.
func (rig *serveRig) runPhase(name string, dur time.Duration, writer *churn, spans bool) *phase {
	ph := &phase{name: name, dur: dur, v0: rig.store.Snapshot().Version()}
	h0, m0 := rig.server.CacheStats()
	parent := 0
	if spans {
		parent = rig.rec.begin("serve."+name, 0)
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards ph while clients merge their records
	for c, hc := range rig.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A stream per client and phase: the requests are a function of
			// the seed alone, whatever the interleaving.
			r := rng.New(rig.seed ^ uint64(c+1)<<32 ^ uint64(len(name)))
			cursor := c * len(rig.hot) / len(rig.clients)
			var mine []response
			var keep []kept
			failed, why := 0, ""
			for n := 0; time.Now().Before(deadline); n++ {
				var q query
				if r.Float64() < rig.spec.HotShare {
					q = rig.hot[cursor%len(rig.hot)]
					cursor++
				} else {
					q = coneQuery(r)
				}
				sampled := n%sampleEvery == 0
				id := 0
				if sampled && spans {
					id = rig.rec.begin("catserve.http_request", parent)
				}
				t0 := time.Now()
				body, err := get(hc, rig.url+q.Target)
				lat := time.Since(t0)
				if id != 0 {
					rig.rec.end(id)
				}
				mine = append(mine, response{at: t0.Add(lat).Sub(start), lat: lat})
				if err != nil {
					failed, why = failed+1, err.Error()
				} else if sampled {
					keep = append(keep, kept{q, body})
				}
			}
			mu.Lock()
			ph.responses = append(ph.responses, mine...)
			ph.kept = append(ph.kept, keep...)
			ph.failed += failed
			if why != "" {
				ph.why = why
			}
			mu.Unlock()
		}()
	}
	if writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(rig.spec.Every)
			defer tick.Stop()
			for now := range tick.C {
				if !now.Before(deadline) {
					return
				}
				idx, ents := writer.next(rig.spec.Batch)
				id := 0
				if spans {
					id = rig.rec.begin("catserve.apply", parent)
				}
				t0 := time.Now()
				rig.store.Apply(idx, ents)
				lat := time.Since(t0)
				if id != 0 {
					rig.rec.end(id)
				}
				ph.publishes = append(ph.publishes, response{at: t0.Add(lat).Sub(start), lat: lat})
			}
		}()
	}
	wg.Wait()
	if spans {
		rig.rec.end(parent)
	}
	h1, m1 := rig.server.CacheStats()
	ph.hits, ph.misses = h1-h0, m1-m0
	return ph
}

// get fetches one URL and returns the body of a 200 response.
func get(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, tail(string(body), 200))
	}
	return body, nil
}

// windowed cuts records into the phase's windows and applies f to the
// latencies (microseconds, ascending) of each non-empty window.
func windowed(recs []response, dur time.Duration, f func(latUS []float64, window time.Duration) float64) []float64 {
	width := dur / phaseWindows
	buckets := make([][]float64, phaseWindows)
	for _, r := range recs {
		if w := int(r.at / width); w < phaseWindows { // the last request may finish past the deadline
			buckets[w] = append(buckets[w], float64(r.lat)/1e3)
		}
	}
	var out []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			out = append(out, f(b, width))
		}
	}
	return out
}

func perSecond(lat []float64, window time.Duration) float64 {
	return float64(len(lat)) / window.Seconds()
}
func p50(lat []float64, _ time.Duration) float64 { return percentile(lat, 50) }
func p99(lat []float64, _ time.Duration) float64 { return percentile(lat, 99) }

func (ph *phase) latenciesUS() []float64 {
	out := make([]float64, len(ph.responses))
	for i, r := range ph.responses {
		out[i] = float64(r.lat) / 1e3
	}
	sort.Float64s(out)
	return out
}

// check compares every kept response with a scan of the catalog as of the
// version the response names: same count, same set of IDs. catalogAt must be
// asked for versions in ascending order.
func (ph *phase) check(catalogAt func(version uint64) ([]model.CatalogEntry, error)) (failed int, why string) {
	type decoded struct {
		Version uint64 `json:"version"`
		Count   int    `json:"count"`
		Entries []struct{ ID int }
		q       *query
	}
	var ds []decoded
	for i := range ph.kept {
		d := decoded{q: &ph.kept[i].q}
		if err := json.Unmarshal(ph.kept[i].body, &d); err != nil {
			failed, why = failed+1, fmt.Sprintf("%s: %v", d.q.Target, err)
			continue
		}
		ds = append(ds, d)
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Version < ds[j].Version })
	for _, d := range ds {
		catalog, err := catalogAt(d.Version)
		if err != nil {
			failed, why = failed+1, fmt.Sprintf("%s: %v", d.q.Target, err)
			continue
		}
		want := map[int]bool{}
		for i := range catalog {
			if d.q.matches(catalog[i].Pos) {
				want[catalog[i].ID] = true
			}
		}
		ok := d.Count == len(want) && len(d.Entries) == len(want)
		for _, e := range d.Entries {
			ok = ok && want[e.ID]
		}
		if !ok {
			failed, why = failed+1, fmt.Sprintf("%s at version %d: served %d entries, a scan of the catalog finds %d",
				d.q.Target, d.Version, d.Count, len(want))
		}
	}
	return failed, why
}

// runServe is the serving workload, end to end (traced false) or with the
// catserve layer lanes around it (traced true).
func runServe(w *workload, e *env, seed uint64, seconds float64, traced bool) (*workloadResult, error) {
	spec := w.Serve
	res := newResult(w.Name)
	rig := &serveRig{spec: spec, seed: seed, hot: hotQueries(seed, spec.Hot)}
	if traced {
		rig.rec = newRecorder(fmt.Sprintf("%s-%d", w.Name, seed))
	}

	// Set-up, 31 times over (it takes 20 ms, ±20% from one to the next):
	// catalog fixture plus index build.
	var setup, build []float64
	for i := 0; i < 31; i++ {
		t0 := time.Now()
		bounds, base := catalogFixture(seed, spec.Sources)
		t1 := time.Now()
		rig.store = catserve.NewStore(bounds, base, catserve.Options{})
		setup = append(setup, time.Since(t0).Seconds())
		build = append(build, float64(time.Since(t1))/1e6)
		rig.base = base
	}
	fixture, err := json.Marshal(rig.base)
	if err != nil {
		return nil, err
	}
	res.InputSHA256 = combineSHA([]string{string(fixture), fmt.Sprint(rig.hot)})

	rig.server = catserve.NewServer(rig.store)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := rig.server.HTTPServer()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
		<-served
	}()
	rig.url = "http://" + l.Addr().String()
	for i := 0; i < spec.Clients; i++ {
		// A transport per client: one keep-alive connection each.
		tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer tr.CloseIdleConnections()
		rig.clients = append(rig.clients, &http.Client{Transport: tr, Timeout: 10 * time.Second})
	}
	// Users do not pay for a cold cache on every run: fill it before timing.
	for _, q := range rig.hot {
		if _, err := get(rig.clients[0], rig.url+q.Target); err != nil {
			return nil, fmt.Errorf("warming %s: %w", q.Target, err)
		}
	}

	half := time.Duration(seconds / 2 * float64(time.Second))
	var plain *phase
	if traced {
		// The same static traffic without the recorder, to price the spans.
		plain = rig.runPhase("static", half/2, nil, false)
	}
	// Start the resident-set high-water mark afresh, so that it is this
	// workload's and not that of whatever ran in the process before.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // refused on old kernels: the lifetime mark stands
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	static := rig.runPhase("static", half, nil, traced)
	churnPh := rig.runPhase("churn", half, newChurn(seed, rig.base), traced)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	peakRSS := vmHWM("/proc/self")

	// Correctness, off the clock. The writer is the only updater, so version
	// v0+k is the catalog after its first k batches.
	replay := newChurn(seed, rig.base)
	applied := uint64(0)
	for _, ph := range []*phase{static, churnPh} {
		res.Attempted += len(ph.responses)
		if ph.failed > 0 {
			res.fail(ph.failed, ph.name+": "+ph.why)
		}
		n, why := ph.check(func(version uint64) ([]model.CatalogEntry, error) {
			if version < churnPh.v0+applied || version > churnPh.v0+uint64(len(churnPh.publishes)) {
				return nil, fmt.Errorf("response names version %d; versions %d to %d were published",
					version, churnPh.v0, churnPh.v0+uint64(len(churnPh.publishes)))
			}
			for ; churnPh.v0+applied < version; applied++ {
				replay.next(spec.Batch)
			}
			return replay.state, nil
		})
		if n > 0 {
			// A wrong answer among the sampled 1% stands for its hundred.
			res.fail(min(n*sampleEvery, len(ph.responses)), ph.name+": "+why)
		}
	}
	if got, want := rig.store.Snapshot().Version(), churnPh.v0+uint64(len(churnPh.publishes)); got != want {
		res.fail(len(churnPh.responses), fmt.Sprintf("store at version %d after %d publishes from version %d", got, len(churnPh.publishes), churnPh.v0))
	}

	qps := windowed(static.responses, static.dur, perSecond)
	churnQPS := windowed(churnPh.responses, churnPh.dur, perSecond)
	cpu := time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
	requests := float64(len(static.responses) + len(churnPh.responses))
	res.EndToEnd["setup_s"] = summarize(setup)
	// One number for the gate: the mean of the static and the churn rate,
	// window by window, so a loss in either phase moves it.
	var both []float64
	for i := range min(len(qps), len(churnQPS)) {
		both = append(both, (qps[i]+churnQPS[i])/2)
	}
	res.EndToEnd["ops_per_s"] = summarize(both)
	res.EndToEnd["cpu_ms_per_op"] = summarize([]float64{float64(cpu) / 1e6 / requests})
	res.EndToEnd["peak_rss_mb"] = summarize([]float64{peakRSS})
	res.EndToEnd["queries_per_s"] = summarize(qps)
	res.EndToEnd["query_p50_us"] = summarize(windowed(static.responses, static.dur, p50))
	res.EndToEnd["query_p99_us"] = summarize(windowed(static.responses, static.dur, p99))
	if pct, v, ok := tailPercentile(static.latenciesUS()); ok {
		s := summarize([]float64{v})
		s.Note = fmt.Sprintf("p%g, the highest percentile with ten samples beyond it", pct)
		res.EndToEnd["query_tail_us"] = s
	}
	res.EndToEnd["churn_queries_per_s"] = summarize(churnQPS)
	res.EndToEnd["churn_query_p99_us"] = summarize(windowed(churnPh.responses, churnPh.dur, p99))
	res.EndToEnd["publish_p50_us"] = summarize(windowed(churnPh.publishes, churnPh.dur, p50))

	if traced {
		res.PerLayer = rig.layers(plain, static, churnPh, medianOf(build))
		if err := rig.rec.writeJSONL(tracePath(e, w.Name)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layers is the catserve part of the per-layer ledger, from the traced
// phases and from direct calls into Server.Query on the same traffic.
func (rig *serveRig) layers(plain, static, churnPh *phase, buildMS float64) map[string]float64 {
	// Direct calls, no HTTP: the hot cycle (every target cached) and fresh
	// cones (every target a quadtree walk plus JSON encoding).
	r := rng.New(rig.seed ^ 0x6c616e65)
	var cached, uncached []float64
	for i := 0; i < 20000; i++ {
		q := rig.hot[i%len(rig.hot)]
		if i < len(rig.hot) {
			rig.server.Query(q.Target) // the churn phase left the cache cold
			continue
		}
		t0 := time.Now()
		rig.server.Query(q.Target)
		cached = append(cached, float64(time.Since(t0)))
	}
	for i := 0; i < 2000; i++ {
		q := coneQuery(r)
		t0 := time.Now()
		rig.server.Query(q.Target)
		uncached = append(uncached, float64(time.Since(t0))/1e3)
	}
	// The traffic mix's Query-only median, to set against the HTTP median.
	mix := rig.spec.HotShare*medianOf(cached)/1e3 + (1-rig.spec.HotShare)*medianOf(uncached)

	plainQPS := medianOf(windowed(plain.responses, plain.dur, perSecond))
	staticQPS := medianOf(windowed(static.responses, static.dur, perSecond))
	staticP50 := medianOf(windowed(static.responses, static.dur, p50))
	ratio := func(ph *phase) float64 { return float64(ph.hits) / float64(max(ph.hits+ph.misses, 1)) }
	publishP50 := medianOf(windowed(churnPh.publishes, churnPh.dur, p50))
	return map[string]float64{
		"catserve.build_ms":               buildMS,
		"catserve.cached_ns":              medianOf(cached),
		"catserve.uncached_us":            medianOf(uncached),
		"catserve.http_overhead_us":       staticP50 - mix,
		"catserve.http_static_qps":        staticQPS,
		"catserve.http_static_p50_us":     staticP50,
		"catserve.http_static_p99_us":     medianOf(windowed(static.responses, static.dur, p99)),
		"catserve.http_churn_qps":         medianOf(windowed(churnPh.responses, churnPh.dur, perSecond)),
		"catserve.http_churn_p99_us":      medianOf(windowed(churnPh.responses, churnPh.dur, p99)),
		"catserve.cache_hit_ratio_static": ratio(static),
		"catserve.cache_hit_ratio_churn":  ratio(churnPh),
		"catserve.publish_p50_us":         publishP50,
		"catserve.apply_us_per_entry":     publishP50 / float64(rig.spec.Batch),
		"catserve.publishes":              float64(len(churnPh.publishes)),
		"trace.overhead_frac":             (plainQPS - staticQPS) / plainQPS,
		"trace.spans":                     float64(len(rig.rec.spans)),
	}
}
