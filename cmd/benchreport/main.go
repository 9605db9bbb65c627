// Command benchreport runs the hot-path performance harness — steady-state
// ELBO evaluation, value-only evaluation, a whole per-source Newton fit, and
// a joint Cyclades sweep, on the same fixed-seed fixtures the root package's
// BenchmarkHotPath uses — and writes the results to BENCH_elbo.json so every
// PR leaves a comparable perf record.
//
// It is also the perf-regression gate: it exits nonzero when any benchmark's
// ns/op regresses more than 15% against the pinned seed reference, or when
// the steady-state allocation budgets (0 allocs/op for the eval and fit
// kernels, 100 for a joint sweep) are exceeded. CI runs it with
// -benchtime 1x on every PR: allocation counts are exact even for a single
// iteration, and the seed-regression margin is far wider than 1x timing
// noise.
//
// Usage:
//
//	go run ./cmd/benchreport [-o BENCH_elbo.json] [-benchtime 2s|1x]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"celeste/internal/benchfix"
)

// entry is one benchmark's record. VisitsPerSec is the paper's throughput
// unit (active pixel visits, Section VI-B); it is 0 for benchmarks that do
// not visit pixels.
type entry struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	VisitsPerSec float64 `json:"visits_per_sec"`
	Iterations   int     `json:"iterations"`
}

type report struct {
	Timestamp  string           `json:"timestamp"`
	GoVersion  string           `json:"go_version"`
	GOARCH     string           `json:"goarch"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"` // what the lanes actually ran on; below num_cpu under a CPU quota or an explicit setting
	Benchmarks map[string]entry `json:"benchmarks"`

	// SeedReference pins the pre-optimization numbers for the same fixtures,
	// measured once at the seed commit (3803b06, amd64 CI container) before
	// the zero-allocation hot path landed. It is a fixed provenance record
	// for the perf trajectory, not remeasured per run.
	SeedReference map[string]entry `json:"seed_reference"`
}

// seedReference: see report.SeedReference. The vi_fit visits_per_sec is
// back-filled from the fixture's fixed workload: a full fit visits 137,500
// active pixels (invariant across PRs until culling changes the fixture),
// so the seed rate is 137500 / 1.01801081 s. The elbo_evalgrad reference is
// the PR-4 full-tier cost (5.65 ms): before the gradient tier existed, a
// gradient cost a full evaluation, so the regression gate for the new tier
// binds against that provenance.
// The elbo_evalvalue and core_process references are the PR-3 numbers from
// the EXPERIMENTS.md trajectory table — the first PR where both lanes
// existed — pinned so the gate binds for every recorded lane (they were
// recorded but ungated before).
// The catalog_query reference is the UNCACHED cost of the lane's query cycle
// (cone/box/brightest over the 20k-source fixture, caching disabled),
// measured when the lane landed: the per-snapshot cache is the optimization
// under test, so the seed is what every repeated query cost without it. The
// recorded (cached) path runs ~40 ns/op — four orders of magnitude inside
// this gate — whose binding guard is the 0 allocs/op budget below: a single
// allocation creeping into the hit path is what would sink the
// queries-per-second target, long before ns/op regressed 15% against the
// cold reference.
// The elbo_eval_multi and elbo_eval_par references are both the SERIAL cost
// of the 15-patch multi-image evaluation, measured when intra-fit parallelism
// landed: the parallel evaluator is the optimization under test, so its gate
// binds against what the same evaluation costs without the fan-out. On a
// single-core container the parallel lane sits within noise of this number
// (the fan-out overhead is microseconds against a ~16 ms evaluation); on
// multi-core hardware it only gets faster, and the NumCPU-gated speedup
// check below enforces the >=1.8x target where cores exist to show it.
var seedReference = map[string]entry{
	"elbo_eval":       {NsPerOp: 54713155, AllocsPerOp: 3689, BytesPerOp: 7546332, VisitsPerSec: 56802},
	"elbo_eval_multi": {NsPerOp: 16214498, AllocsPerOp: 0, BytesPerOp: 0, VisitsPerSec: 578187},
	"elbo_eval_par":   {NsPerOp: 16214498, AllocsPerOp: 0, BytesPerOp: 0, VisitsPerSec: 578187},
	"elbo_evalgrad":   {NsPerOp: 5654427, AllocsPerOp: 0, BytesPerOp: 0, VisitsPerSec: 552664},
	"elbo_evalvalue":  {NsPerOp: 1000959},
	"vi_fit":          {NsPerOp: 1018010810, AllocsPerOp: 74491, BytesPerOp: 151363660, VisitsPerSec: 135067},
	"core_process":    {NsPerOp: 1467191928, AllocsPerOp: 11627, BytesPerOp: 22745656},
	"catalog_query":   {NsPerOp: 414365, AllocsPerOp: 13, BytesPerOp: 90475},
}

// maxRegression is the gate: ns/op more than this factor above the seed
// reference fails the run.
const maxRegression = 1.15

// fastLaneMinIters: a lane whose steady state is near a millisecond needs
// more than a handful of iterations before ns/op means anything — a single
// cold iteration (cache and branch-predictor warm-up) reads several times the
// steady state, which would trip the 15% regression gate with pure noise at
// -benchtime 1x. When an iteration-style -benchtime asks for fewer, these
// lanes run this many iterations instead; duration-style benchtimes are left
// alone, and the allocation gates are unaffected (they use AllocsPerRun).
// The slower lanes (54 ms to 1.5 s per op) are representative at one
// iteration and stay exact-count.
var fastLaneMinIters = map[string]int{"elbo_evalvalue": 100, "catalog_query": 20000}

// iterBenchtime reports whether s is the iteration-count form of
// -benchtime ("100x") and, if so, how many iterations it asks for.
func iterBenchtime(s string) (int, bool) {
	if len(s) < 2 || s[len(s)-1] != 'x' {
		return 0, false
	}
	n := 0
	for _, c := range s[:len(s)-1] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// allocBudget is the steady-state allocs/op gate per benchmark.
var allocBudget = map[string]int64{
	"elbo_eval":       0,
	"elbo_eval_multi": 0,
	"elbo_eval_par":   0,
	"elbo_evalgrad":   0,
	"elbo_evalvalue":  0,
	"vi_fit":          0,
	"core_process":    100,
	"catalog_query":   0,
}

// minParSpeedup is the intra-fit parallelism target: with 8 patch workers on
// the 15-patch multi-image fixture, evaluation must run at least this much
// faster than the serial lane — enforced only where the hardware can show it
// (NumCPU >= 8); on smaller containers the elbo_eval_par regression gate
// against the serial seed reference still binds.
const minParSpeedup = 1.8

func main() {
	testing.Init() // register test.* flags so test.benchtime resolves
	out := flag.String("o", "BENCH_elbo.json", "output path")
	benchtime := flag.String("benchtime", "2s", "benchmark duration (go test -benchtime syntax, e.g. 2s or 1x)")
	flag.Parse()

	// testing.Benchmark honors -test.benchtime; set it explicitly so the
	// harness runs long enough for stable numbers (or exactly once for the
	// CI smoke gate).
	if err := flag.Lookup("test.benchtime").Value.Set(*benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	// Fail on an unwritable output path now, not after minutes of
	// benchmarking.
	if f, err := os.OpenFile(*out, os.O_WRONLY|os.O_CREATE, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	} else {
		f.Close()
	}

	rep := report{
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Benchmarks:    map[string]entry{},
		SeedReference: seedReference,
	}

	record := func(name string, f func(b *testing.B) int64) {
		if min, ok := fastLaneMinIters[name]; ok {
			if n, iters := iterBenchtime(*benchtime); iters && n < min {
				bt := flag.Lookup("test.benchtime").Value
				prev := bt.String()
				if err := bt.Set(fmt.Sprintf("%dx", min)); err == nil {
					defer bt.Set(prev)
				}
			}
		}
		var visits int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			visits = f(b)
		})
		e := entry{
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		if visits > 0 && r.T > 0 {
			e.VisitsPerSec = float64(visits) / r.T.Seconds()
		}
		rep.Benchmarks[name] = e
		fmt.Printf("%-18s %12.0f ns/op %6d allocs/op %12.0f visits/s\n",
			name, e.NsPerOp, e.AllocsPerOp, e.VisitsPerSec)
	}

	record("elbo_eval", benchfix.BenchElboEval)
	record("elbo_eval_multi", benchfix.BenchElboEvalMulti)
	record("elbo_eval_par", benchfix.BenchElboEvalPar)
	record("elbo_evalgrad", benchfix.BenchElboEvalGrad)
	record("elbo_evalvalue", benchfix.BenchElboEvalValue)
	record("vi_fit", benchfix.BenchViFit)
	record("core_process", benchfix.BenchCoreProcess)
	record("catalog_query", benchfix.BenchCatalogQuery)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if m, p := rep.Benchmarks["elbo_eval_multi"], rep.Benchmarks["elbo_eval_par"]; p.NsPerOp > 0 {
		fmt.Printf("intra-fit parallel speedup (8 workers, %d cpus): %.2fx\n",
			runtime.NumCPU(), m.NsPerOp/p.NsPerOp)
	}

	// Gates, checked after the report is written so a failing run still
	// leaves the numbers behind for inspection.
	failures := gateFailures(rep.Benchmarks, rep.SeedReference, benchfix.AllocGates())
	failures = append(failures, speedupFailures(rep.Benchmarks, runtime.NumCPU())...)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchreport: FAIL "+f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// gateFailures evaluates the perf gates over one run's numbers and returns a
// description per violation. Allocation budgets are gated on AllocsPerRun
// measurements (exact in steady state) rather than the benchmark-attributed
// counts, which pick up background runtime allocations at -benchtime 1x. A
// recorded lane with no (positive) seed reference is itself a gate error:
// an ungated lane can regress silently for PRs on end, which is exactly how
// elbo_evalvalue and core_process went unwatched until their references were
// pinned.
// speedupFailures enforces the intra-fit parallelism target where the
// hardware can express it: on >=8-CPU machines the 8-worker parallel lane
// must beat the serial multi-image lane by minParSpeedup. Below that core
// count a fixed ratio would gate on the scheduler, not the code.
func speedupFailures(benchmarks map[string]entry, numCPU int) []string {
	if numCPU < 8 {
		return nil
	}
	m, okM := benchmarks["elbo_eval_multi"]
	p, okP := benchmarks["elbo_eval_par"]
	if !okM || !okP || m.NsPerOp <= 0 || p.NsPerOp <= 0 {
		return nil
	}
	if speedup := m.NsPerOp / p.NsPerOp; speedup < minParSpeedup {
		return []string{fmt.Sprintf(
			"elbo_eval_par: %.2fx speedup over serial on %d cpus, want >=%.1fx",
			speedup, numCPU, minParSpeedup)}
	}
	return nil
}

func gateFailures(benchmarks, seed map[string]entry, steadyAllocs map[string]float64) []string {
	var failures []string
	for name, allocs := range steadyAllocs {
		if budget, ok := allocBudget[name]; ok && int64(allocs) > budget {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f steady-state allocs/op exceeds budget %d", name, allocs, budget))
		}
	}
	for name, e := range benchmarks {
		ref, ok := seed[name]
		if !ok || ref.NsPerOp <= 0 {
			failures = append(failures, fmt.Sprintf(
				"%s: recorded but has no seed reference — pin one so the regression gate binds", name))
			continue
		}
		if e.NsPerOp > ref.NsPerOp*maxRegression {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f ns/op regresses >%.0f%% vs seed reference %.0f ns/op",
				name, e.NsPerOp, 100*(maxRegression-1), ref.NsPerOp))
		}
	}
	sort.Strings(failures)
	return failures
}
