package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentile(t *testing.T) {
	s := ascending(100)
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0: 1, 99.5: 100} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

// The tail percentile is the highest of the ladder with ten samples beyond.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
		ok  bool
	}{
		{5, 0, false}, {19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {123456, 99.99, true},
	} {
		pct, v, ok := tailPercentile(ascending(c.n))
		if ok != c.ok || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, pct, ok, c.pct, c.ok)
		}
		if beyond := float64(c.n) - v; ok && beyond < 10 {
			t.Errorf("n=%d: only %g samples beyond p%g", c.n, beyond, pct)
		}
	}
}

// Reference values from Python's statistics.quantiles(values, n=4).
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{10, 12, 11, 13, 9, 10.5, 11.5, 12.5, 9.5, 10}, 0.20930232558139536},
		{[]float64{3, 1, 2}, 1},
		{[]float64{5, 7}, 0.5},
		{[]float64{4}, 0},
	} {
		if got := quartileSpread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, start, end time.Duration) span {
		return span{ID: id, Parent: parent, Start: start, End: end}
	}
	spans := []span{
		sp(1, 0, 0, 100),  // root
		sp(2, 1, 10, 40),  // nested child with a child of its own
		sp(3, 2, 15, 25),  //
		sp(4, 1, 30, 60),  // sibling overlapping span 2 by 10
		sp(5, 1, 70, 70),  // zero length
		sp(6, 1, 90, 130), // runs past its parent: clipped at 100
		sp(7, 0, 5, 5),    // zero-length root
	}
	want := map[int]time.Duration{
		1: 100 - (50 + 0 + 10), // children cover 10..60 and 90..100
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 0,
		6: 40,
		7: 0,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(m float64) stat { return stat{Median: m, Min: m * 0.99, Max: m * 1.01, N: 3} }
	loose := func(m float64) stat { return stat{Median: m, Min: m * 0.9, Max: m * 1.1, N: 3} }
	for _, c := range []struct {
		d    metricDef
		a, b stat
		want string
	}{
		{lower, tight(10), tight(10.5), "same"},
		{lower, tight(10), tight(11.5), "worse"},
		{lower, tight(10), tight(8.5), "better"},
		{higher, tight(10), tight(8.5), "worse"},
		{higher, tight(10), tight(11.5), "better"},
		{lower, tight(10), loose(11.5), "unresolved"},
		{lower, loose(10), tight(10), "unresolved"},
		{metricDef{Name: "err", Better: "lower"}, tight(1), tight(5), "info"},
		{lower, stat{Median: 10, N: 1}, stat{Median: 12, N: 1}, "worse"}, // one sample: no spread to object with
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	m := &manifest{EndToEnd: []metricDef{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	run := func(sha string, rate float64, failed int) *results {
		return &results{Workloads: []*workloadResult{{Workload: "w", InputSHA256: sha, Attempted: 100, Failed: failed,
			EndToEnd: map[string]stat{"ops_per_s": {Median: rate, Min: rate, Max: rate, N: 3}}}}}
	}
	var out bytes.Buffer
	if worse, err := compareResults(&out, m, run("aa", 100, 0), run("aa", 80, 0)); err != nil || worse != 1 {
		t.Errorf("a 20%% loss against a 10%% bound: worse=%d err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "0.8000") {
		t.Errorf("the row does not give the ratio to its base:\n%s", out.String())
	}
	if worse, err := compareResults(&out, m, run("aa", 100, 0), run("aa", 101, 1)); err != nil || worse != 1 {
		t.Errorf("a new failure must count as worse: worse=%d err=%v", worse, err)
	}
	if worse, err := compareResults(&out, m, run("aa", 100, 0), run("aa", 95, 0)); err != nil || worse != 0 {
		t.Errorf("a 5%% loss is inside the bound: worse=%d err=%v", worse, err)
	}
	if _, err := compareResults(&out, m, run("aa", 100, 0), run("bb", 100, 0)); err == nil {
		t.Error("runs over different inputs were compared")
	}
}

// The manifest and the program must name the same workloads and metrics.
func TestManifest(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].Name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(m.endToEndDefs(), m.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs all four workloads, end to end and traced, on tiny inputs:
// every code path of the benchmark, none of its cost.
func TestSmoke(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	e, cleanup, err := newEnv(mustAbs(t, ".."), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	produced := make(chan string, 4*len(m.PerLayer))
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(w, e, 3, 1, false, true)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("end to end: %d of %d failed: %v", res.Failed, res.Attempted, res.Failures)
				}
				line, err := res.driverLine(m, false)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal(line, &got); err != nil || !got.Correct {
					t.Fatalf("driver line %s: %v", line, err)
				}
				for _, d := range m.EndToEnd {
					if !(got.Metrics[d.Name].Value > 0) {
						t.Errorf("%s = %v, want a positive number", d.Name, got.Metrics[d.Name].Value)
					}
				}

				tr, err := runWorkload(w, e, 3, 1, true, true)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Failed != 0 {
					t.Errorf("traced: %d of %d failed: %v", tr.Failed, tr.Attempted, tr.Failures)
				}
				if w.Sky != nil {
					total := 0.0
					for name, v := range tr.PerLayer {
						if strings.HasPrefix(name, "budget.") {
							total += v
						}
					}
					if math.Abs(total-1) > 1e-9 {
						t.Errorf("budget fractions sum to %v", total)
					}
				}
				if st, err := os.Stat(tracePath(e, w.Name)); err != nil || st.Size() == 0 {
					t.Errorf("no trace written: %v", err)
				}
				for name := range tr.PerLayer {
					produced <- name
				}
			})
		}
	})
	close(produced)
	declared := map[string]bool{}
	for _, d := range m.PerLayer {
		declared[d.Name] = false
	}
	for name := range produced {
		if _, ok := declared[name]; !ok {
			t.Errorf("per-layer metric %s is measured but not declared in BENCHMARK.json", name)
		}
		declared[name] = true
	}
	for name, measured := range declared {
		if !measured {
			t.Errorf("per-layer metric %s is declared in BENCHMARK.json but no workload measures it", name)
		}
	}
}

func mustAbs(t *testing.T, p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		t.Fatal(err)
	}
	return abs
}
