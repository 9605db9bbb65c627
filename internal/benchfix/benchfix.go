// Package benchfix builds the fixed-seed fixtures the performance harness
// measures: a single-source five-band scene for the ELBO/fit kernels and a
// small multi-source region for joint inference. Both the root package's
// `go test -bench` benchmarks and cmd/benchreport (which writes
// BENCH_elbo.json) use these, so every recorded number refers to the same
// workload across PRs.
package benchfix

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"celeste/internal/catserve"
	"celeste/internal/core"
	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// PixScale is the SDSS-like pixel scale (degrees/pixel) of every fixture.
const PixScale = 1.1e-4

// SceneImages renders the five-band single-galaxy scene for the kernel
// benchmarks: one 48x48 image per band with Poisson noise at a fixed seed.
func SceneImages(seed uint64) ([]*survey.Image, model.CatalogEntry) {
	r := rng.New(seed)
	truth := model.CatalogEntry{
		Pos: geom.Pt2{RA: 0.003, Dec: 0.003}, ProbGal: 1,
		Flux:       [model.NumBands]float64{10, 15, 20, 23, 25},
		GalDevFrac: 0.3, GalAxisRatio: 0.6, GalAngle: 0.8, GalScale: 2 * PixScale,
	}
	var images []*survey.Image
	size := 48
	for band := 0; band < model.NumBands; band++ {
		w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*PixScale,
			truth.Pos.Dec-float64(size)/2*PixScale, PixScale)
		p := psf.Default(1.2)
		im := &survey.Image{Band: band, W: size, H: size, WCS: w, PSF: p,
			Iota: 100, Sky: 80, Pixels: make([]float64, size*size)}
		for i := range im.Pixels {
			im.Pixels[i] = 80
		}
		model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, band, 100, 6)
		for i, lam := range im.Pixels {
			im.Pixels[i] = float64(r.Poisson(lam))
		}
		images = append(images, im)
	}
	return images, truth
}

// SingleSourceScene builds the per-source optimization problem over the
// SceneImages scene plus its initialization.
func SingleSourceScene(seed uint64) (*elbo.Problem, model.Params) {
	images, truth := SceneImages(seed)
	priors := model.DefaultPriors()
	pb := new(elbo.Builder).Build(&priors, images, truth.Pos, 12)
	return pb, model.InitialParams(&truth)
}

// MultiImageScene builds the multi-epoch fixture for the intra-fit
// parallelism lanes: three epochs of the five-band SceneImages galaxy (15
// patches), with per-epoch calibration differences but identical geometry —
// same WCS, size, and PSF across epochs — so every patch sweeps the same row
// widths and a warm parallel scratch stays allocation-free regardless of
// which worker claims which patch.
func MultiImageScene(seed uint64) (*elbo.Problem, model.Params) {
	r := rng.New(seed)
	truth := model.CatalogEntry{
		Pos: geom.Pt2{RA: 0.003, Dec: 0.003}, ProbGal: 1,
		Flux:       [model.NumBands]float64{10, 15, 20, 23, 25},
		GalDevFrac: 0.3, GalAxisRatio: 0.6, GalAngle: 0.8, GalScale: 2 * PixScale,
	}
	var images []*survey.Image
	size := 48
	for ep := 0; ep < 3; ep++ {
		for band := 0; band < model.NumBands; band++ {
			w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*PixScale,
				truth.Pos.Dec-float64(size)/2*PixScale, PixScale)
			p := psf.Default(1.2)
			iota := 100 + 12*float64(ep)
			sky := 80 + 6*float64(ep)
			im := &survey.Image{ID: ep*model.NumBands + band, Band: band,
				W: size, H: size, WCS: w, PSF: p,
				Iota: iota, Sky: sky, Pixels: make([]float64, size*size)}
			for i := range im.Pixels {
				im.Pixels[i] = sky
			}
			model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, band, iota, 6)
			for i, lam := range im.Pixels {
				im.Pixels[i] = float64(r.Poisson(lam))
			}
			images = append(images, im)
		}
	}
	priors := model.DefaultPriors()
	pb := new(elbo.Builder).Build(&priors, images, truth.Pos, 12)
	return pb, model.InitialParams(&truth)
}

// SmallRegion builds a fixed-seed multi-source region for core.Process
// benchmarks, returning the region, a deterministic config, and a pristine
// copy of the initial parameters (Process updates Region.Params in place;
// restore from the copy before each measured run).
func SmallRegion(seed uint64) (*core.Region, core.Config, []model.Params) {
	cfg := survey.DefaultConfig(seed)
	cfg.Region = geom.NewBox(0, 0, 0.014, 0.014)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 96, 96
	cfg.SourceDensity = 25000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(8), math.Log(10)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.5, 0.5}
	sv := survey.Generate(cfg)

	noisy := sv.NoisyCatalog(seed + 1)
	priors := model.FitPriors(noisy)
	rg := &core.Region{
		Priors:   &priors,
		Images:   sv.Images,
		PixScale: sv.Config.PixScale,
	}
	for i := range noisy {
		rg.Sources = append(rg.Sources, i)
		rg.Entries = append(rg.Entries, &noisy[i])
		rg.Params = append(rg.Params, model.InitialParams(&noisy[i]))
	}
	init := append([]model.Params(nil), rg.Params...)

	pcfg := core.Config{
		Threads: 4, Rounds: 1, Seed: seed,
		Fit: vi.Options{MaxIter: 10, GradTol: 1e-3},
	}
	return rg, pcfg, init
}

// The Bench* functions below are the single source of truth for the hot-path
// benchmark bodies: both `go test -bench HotPath` (bench_test.go) and
// cmd/benchreport (BENCH_elbo.json) run exactly these, so the recorded perf
// trajectory always refers to the same workload. Each warms its scratch
// before the timed loop and returns the total active-pixel visits.

// BenchElboEval measures steady-state derivative evaluation (EvalInto).
func BenchElboEval(b *testing.B) int64 {
	pb, init := SingleSourceScene(11)
	s := elbo.NewScratch()
	pb.EvalInto(&init, s)
	var visits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pb.EvalInto(&init, s)
		visits += r.Visits
	}
	return visits
}

// BenchElboEvalGrad measures the middle evaluation tier (EvalGradInto): value
// and gradient without Hessian moments, the cost of a lazy-Hessian accepted
// step.
func BenchElboEvalGrad(b *testing.B) int64 {
	pb, init := SingleSourceScene(11)
	s := elbo.NewScratch()
	pb.EvalGradInto(&init, s)
	var visits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pb.EvalGradInto(&init, s)
		visits += r.Visits
	}
	return visits
}

// BenchElboEvalValue measures the value-only trust-region ratio-test path.
func BenchElboEvalValue(b *testing.B) int64 {
	pb, init := SingleSourceScene(11)
	s := elbo.NewScratch()
	pb.EvalValueWith(&init, s)
	var visits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, vis := pb.EvalValueWith(&init, s)
		visits += vis
	}
	return visits
}

// BenchElboEvalMulti measures serial steady-state derivative evaluation on
// the 15-patch multi-image fixture — the baseline the parallel lane's
// speedup and regression gate are measured against.
func BenchElboEvalMulti(b *testing.B) int64 {
	pb, init := MultiImageScene(11)
	s := elbo.NewScratch()
	pb.EvalInto(&init, s)
	var visits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pb.EvalInto(&init, s)
		visits += r.Visits
	}
	return visits
}

// BenchElboEvalPar measures the same multi-image evaluation fanned out to 8
// patch workers. The result is bitwise identical to BenchElboEvalMulti's;
// only the wall clock differs (by up to the core count, 15 patches / 8
// workers bounding the critical path at 2 patch sweeps).
func BenchElboEvalPar(b *testing.B) int64 {
	pb, init := MultiImageScene(11)
	s := elbo.NewScratch()
	s.SetWorkers(8)
	for i := 0; i < 5; i++ {
		// One warmup pass is not enough here: patch claiming is racy, so a
		// crew worker can sit out an entire evaluation and first grow its
		// sweep buffers inside the timed loop. A few passes warm all eight.
		pb.EvalInto(&init, s)
	}
	var visits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := pb.EvalInto(&init, s)
		visits += r.Visits
	}
	return visits
}

// BenchViFit measures a whole warm-scratch Newton trust-region fit.
func BenchViFit(b *testing.B) int64 {
	pb, init := SingleSourceScene(11)
	s := vi.NewScratch()
	opts := vi.Options{MaxIter: 25, GradTol: 1e-4}
	vi.FitWith(pb, init, opts, s)
	var visits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := vi.FitWith(pb, init, opts, s)
		visits += r.Visits
	}
	return visits
}

// AllocGates measures steady-state allocations per operation for each hot
// path with testing.AllocsPerRun on warm scratches — the robust counterpart
// to the benchmark-reported allocs/op, which at -benchtime 1x can be
// polluted by background runtime allocations attributed to the single
// measured iteration. cmd/benchreport gates on these numbers.
func AllocGates() map[string]float64 {
	out := map[string]float64{}

	// Flush pending runtime cleanups before counting: benchmark runs that
	// preceded this call leave dead parallel scratches whose crew-shutdown
	// cleanups (runtime.AddCleanup in elbo.SetWorkers) run asynchronously
	// after a collection and would otherwise be attributed to whichever
	// measurement window they land in. Two GCs queue and run them; the
	// brief sleep lets the cleanup goroutine drain.
	runtime.GC()
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	runtime.GC()

	pb, init := SingleSourceScene(11)
	es := elbo.NewScratch()
	pb.EvalInto(&init, es)
	out["elbo_eval"] = testing.AllocsPerRun(5, func() { pb.EvalInto(&init, es) })
	pb.EvalGradInto(&init, es)
	out["elbo_evalgrad"] = testing.AllocsPerRun(5, func() { pb.EvalGradInto(&init, es) })
	pb.EvalValueWith(&init, es)
	out["elbo_evalvalue"] = testing.AllocsPerRun(5, func() { pb.EvalValueWith(&init, es) })

	mpb, minit := MultiImageScene(11)
	mes := elbo.NewScratch()
	mpb.EvalInto(&minit, mes)
	out["elbo_eval_multi"] = testing.AllocsPerRun(5, func() { mpb.EvalInto(&minit, mes) })
	pes := elbo.NewScratch()
	pes.SetWorkers(8)
	// Crew members claim patches racily and size their lanes on the first
	// patch they win, so no fixed number of warm-up passes warms all 8: on a
	// 2-core box a member can win its first patch many passes in, inside the
	// measured window. Every window before the first clean one is therefore
	// warm-up. Each member warms once, so 16 windows cannot all be dirtied by
	// warm-up, while a real per-pass allocation dirties every one of them and
	// is still reported.
	evalPar := func() { mpb.EvalInto(&minit, pes) }
	parAllocs := testing.AllocsPerRun(5, evalPar)
	for w := 1; w < 16 && parAllocs > 0; w++ {
		parAllocs = testing.AllocsPerRun(5, evalPar)
	}
	out["elbo_eval_par"] = parAllocs

	vs := vi.NewScratch()
	opts := vi.Options{MaxIter: 25, GradTol: 1e-4}
	vi.FitWith(pb, init, opts, vs)
	out["vi_fit"] = testing.AllocsPerRun(2, func() { vi.FitWith(pb, init, opts, vs) })

	rg, cfg, rinit := SmallRegion(21)
	copy(rg.Params, rinit)
	cfg.Process(rg)
	out["core_process"] = testing.AllocsPerRun(2, func() {
		copy(rg.Params, rinit)
		cfg.Process(rg)
	})

	box, entries := CatalogFixture(29, 20000)
	srv := catserve.NewServer(catserve.NewStore(box, entries, catserve.Options{}))
	targets := CatalogQueryTargets()
	for _, tg := range targets {
		srv.Query(tg)
	}
	k := 0
	out["catalog_query"] = testing.AllocsPerRun(200, func() {
		srv.Query(targets[k%len(targets)])
		k++
	})
	return out
}

// CatalogFixture builds a deterministic synthetic posterior catalog of n
// sources over the unit sky box for the catalog-query lane.
func CatalogFixture(seed uint64, n int) (geom.Box, []model.CatalogEntry) {
	r := rng.New(seed)
	entries := make([]model.CatalogEntry, n)
	for i := range entries {
		entries[i].ID = i
		entries[i].Pos = geom.Pt2{RA: r.Float64(), Dec: r.Float64()}
		entries[i].ProbGal = r.Float64()
		for b := 0; b < model.NumBands; b++ {
			entries[i].Flux[b] = 1 + r.Float64()*1e4
			entries[i].FluxSD[b] = r.Float64()
		}
	}
	return geom.NewBox(0, 0, 1, 1), entries
}

// CatalogQueryTargets returns the fixed request-target cycle the query lane
// measures: cone, box, and brightest-N queries spread over the footprint.
func CatalogQueryTargets() []string {
	r := rng.New(31)
	targets := make([]string, 0, 64)
	for i := 0; i < 48; i++ {
		targets = append(targets, fmt.Sprintf("/cone?ra=%.4f&dec=%.4f&r=%.4f",
			r.Float64(), r.Float64(), 0.01+r.Float64()*0.05))
	}
	for i := 0; i < 12; i++ {
		x, y := r.Float64()*0.8, r.Float64()*0.8
		targets = append(targets, fmt.Sprintf("/box?ramin=%.4f&decmin=%.4f&ramax=%.4f&decmax=%.4f",
			x, y, x+0.1, y+0.1))
	}
	for n := 1; n <= 4; n++ {
		targets = append(targets, fmt.Sprintf("/brightest?n=%d", n*8))
	}
	return targets
}

// BenchCatalogQuery measures the cached catalog-query hot path: the fixed
// target cycle is warmed once (cold executions populate the snapshot cache),
// then the timed loop serves the same targets — one atomic snapshot load and
// one lock-free cache read per query, the path the load test drives at
// hundreds of thousands of queries per second. Returns 0 visits (no pixels).
func BenchCatalogQuery(b *testing.B) int64 {
	box, entries := CatalogFixture(29, 20000)
	srv := catserve.NewServer(catserve.NewStore(box, entries, catserve.Options{}))
	targets := CatalogQueryTargets()
	for _, tg := range targets {
		if _, status := srv.Query(tg); status != 200 {
			b.Fatalf("warming %s: status %d", tg, status)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, status := srv.Query(targets[i%len(targets)])
		if status != 200 || len(body) == 0 {
			b.Fatalf("query %d: status %d, %d bytes", i, status, len(body))
		}
	}
	return 0
}

// BenchCoreProcess measures a joint Cyclades sweep over the fixed region,
// warming the worker-scratch pools first so the recorded allocs/op reflect
// the steady state a long-running task sweep sees.
func BenchCoreProcess(b *testing.B) int64 {
	rg, cfg, init := SmallRegion(21)
	copy(rg.Params, init)
	cfg.Process(rg)
	var visits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rg.Params, init)
		st := cfg.Process(rg)
		visits += st.Visits
	}
	return visits
}
