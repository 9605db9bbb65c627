// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the ablations DESIGN.md calls out. Each benchmark logs the headline
// numbers it produces so `go test -bench=. -benchmem` doubles as the
// experiment record (EXPERIMENTS.md captures a reference run).
package celeste

import (
	"fmt"
	"math"
	"testing"

	"celeste/internal/benchfix"
	"celeste/internal/catserve"
	"celeste/internal/cluster"
	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/mcmc"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// BenchmarkTableISustainedFlops regenerates Table I: sustained FLOP rates on
// the 9600-node configuration.
func BenchmarkTableISustainedFlops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, w := cluster.Table1Config()
		r := cluster.Simulate(m, w, false)
		if i == 0 {
			b.Logf("TFLOP/s: task=%.2f +imbalance=%.2f +loading=%.2f (paper: 693.69 / 413.19 / 211.94)",
				r.TFLOPsTaskProcessing, r.TFLOPsPlusImbalance, r.TFLOPsPlusLoading)
		}
	}
}

// BenchmarkTableIIPipelines regenerates a reduced Table II: Photo and
// Celeste accuracy on one epoch of a synthetic deep strip.
func BenchmarkTableIIPipelines(b *testing.B) {
	cfg := DefaultSurveyConfig(3)
	cfg.Region = geom.NewBox(0, 0, 0.015, 0.015)
	cfg.DeepRegion = cfg.Region
	cfg.Runs = 1
	cfg.DeepRuns = 0
	cfg.FieldW, cfg.FieldH = 160, 160
	cfg.SourceDensity = 30000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(12), math.Log(15)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.6, 0.6}
	sv := GenerateSurvey(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		photoCat := RunPhoto(sv.Images)
		res := Infer(sv, sv.NoisyCatalog(4), InferConfig{Threads: 8, Rounds: 1, MaxIter: 20})
		if i == 0 {
			rows := CompareToTruth(sv, photoCat, res.Catalog)
			b.Logf("Table II (reduced):\n%s", FormatComparison(rows))
		}
	}
}

// BenchmarkFig4WeakScaling regenerates Figure 4's weak-scaling sweep.
func BenchmarkFig4WeakScaling(b *testing.B) {
	nodes := []int{1, 8, 64, 512, 4096, 8192}
	for i := 0; i < b.N; i++ {
		results := WeakScaling(nodes, 1)
		if i == 0 {
			first := results[0].Components
			last := results[len(results)-1].Components
			b.Logf("1 node: total %.0fs; 8192 nodes: total %.0fs (growth %.2fx, paper 1.9x; imbalance %.0fs -> %.0fs)",
				first.Total(), last.Total(), last.Total()/first.Total(),
				first.LoadImbalance, last.LoadImbalance)
		}
	}
}

// BenchmarkFig5StrongScaling regenerates Figure 5's strong-scaling sweep.
func BenchmarkFig5StrongScaling(b *testing.B) {
	nodes := []int{2048, 4096, 8192}
	for i := 0; i < b.N; i++ {
		results := StrongScaling(nodes, 1)
		if i == 0 {
			t := func(j int) float64 { return results[j].Components.Total() }
			b.Logf("efficiency 2k->4k %.0f%% (paper 65%%), 2k->8k %.0f%% (paper 50%%)",
				100*t(0)/(2*t(1)), 100*t(0)/(4*t(2)))
		}
	}
}

// BenchmarkPeakPerformanceRun regenerates the Section VII-D peak run.
func BenchmarkPeakPerformanceRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := DefaultMachine(9568)
		m.SustainedEff = 1
		w := DefaultWorkload(9568 * 17 * 4)
		r := SimulateCluster(m, w, true)
		if i == 0 {
			b.Logf("peak %.3f PFLOP/s (paper 1.54)", r.PeakPFLOPs)
		}
	}
}

// BenchmarkPerNodeConfigSweep regenerates the Section VII-B sweep.
func BenchmarkPerNodeConfigSweep(b *testing.B) {
	m := DefaultMachine(1)
	for i := 0; i < b.N; i++ {
		best, bp, bt := 0.0, 0, 0
		for _, procs := range []int{4, 8, 17, 34, 68} {
			for _, threads := range []int{1, 2, 4, 8, 16} {
				if procs*threads > 272 {
					continue
				}
				if v := cluster.NodeConfigThroughput(m, procs, threads); v > best {
					best, bp, bt = v, procs, threads
				}
			}
		}
		if i == 0 {
			b.Logf("best node config: %d procs x %d threads (paper: 17x8)", bp, bt)
		}
	}
}

// singleSourceScene builds a five-band galaxy scene for the kernel
// benchmarks (shared with the allocation tests via internal/benchfix).
func singleSourceScene(seed uint64) (*elbo.Problem, model.Params) {
	return benchfix.SingleSourceScene(seed)
}

// BenchmarkNewtonVsLBFGS is the Section IV-D ablation: iteration counts for
// the two optimizers on the same ELBO.
func BenchmarkNewtonVsLBFGS(b *testing.B) {
	pb, init := singleSourceScene(9)
	b.Run("newton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := vi.FitWith(pb, init, vi.Options{GradTol: 1e-4}, vi.NewScratch())
			if i == 0 {
				b.Logf("Newton: %d iterations, ELBO %.1f", r.Iters, r.ELBO)
			}
		}
	})
	b.Run("lbfgs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := vi.FitLBFGS(pb, init, 200)
			if i == 0 {
				b.Logf("L-BFGS: %d iterations (cap 200), ELBO %.1f", r.Iters, r.ELBO)
			}
		}
	})
}

// BenchmarkHessianCost is the paper's claim that computing the Hessian with
// the gradient costs ~3x a value-only evaluation but repays itself in
// iteration count.
func BenchmarkHessianCost(b *testing.B) {
	pb, init := singleSourceScene(10)
	s := elbo.NewScratch()
	b.Run("value-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pb.EvalValueWith(&init, s)
		}
	})
	b.Run("value+grad+hessian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pb.EvalInto(&init, s)
		}
	})
}

// BenchmarkEndToEndInfer measures the whole pipeline on a small survey.
func BenchmarkEndToEndInfer(b *testing.B) {
	cfg := DefaultSurveyConfig(12)
	cfg.Region = geom.NewBox(0, 0, 0.012, 0.012)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 128, 128
	cfg.SourceDensity = 25000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(10), math.Log(12)}
	sv := GenerateSurvey(cfg)
	init := sv.NoisyCatalog(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Infer(sv, init, InferConfig{Threads: 8, Rounds: 1, MaxIter: 15})
		if i == 0 {
			b.Logf("%d sources, %d fits, %d visits", len(res.Catalog), res.Fits, res.Visits)
		}
	}
}

// BenchmarkTaskSizeTradeoff is the Section IV-A ablation: larger tasks
// amortize image loading but worsen end-of-job load imbalance; smaller tasks
// do the reverse. The sweep varies tasks per process at fixed total work.
func BenchmarkTaskSizeTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var lines string
		for _, tasksPerProc := range []int{1, 2, 4, 16, 64} {
			m := DefaultMachine(512)
			nProcs := 512 * m.ProcsPerNode
			w := DefaultWorkload(tasksPerProc * nProcs)
			// Fixed total work: scale per-task visits inversely.
			w.VisitsMean = 4 * 1.1e7 / float64(tasksPerProc)
			// Fixed total image volume staged per process.
			w.ImageGBPerTask = 1.2 * math.Sqrt(float64(tasksPerProc))
			r := SimulateCluster(m, w, false)
			c := r.Components
			lines += "\n  " +
				fmtTaskRow(tasksPerProc, c.ImageLoading, c.LoadImbalance, c.Total())
		}
		if i == 0 {
			b.Logf("tasks/proc vs (loading, imbalance, total):%s", lines)
		}
	}
}

func fmtTaskRow(tpp int, load, imb, total float64) string {
	return fmt.Sprintf("%3d tasks/proc: load %6.1fs imbalance %6.1fs total %7.1fs",
		tpp, load, imb, total)
}

// BenchmarkBurstBufferVsLustre is the I/O ablation: the Burst Buffer's
// higher per-stream bandwidth cuts the image-loading component that the
// parallel file system would impose.
func BenchmarkBurstBufferVsLustre(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bb := DefaultMachine(2048)
		lustre := DefaultMachine(2048)
		lustre.StreamBWGBs = 0.003 // contended Lustre stream
		lustre.BBLatency = 8       // metadata latency
		w := DefaultWorkload(2048 * 68)
		rb := SimulateCluster(bb, w, false)
		rl := SimulateCluster(lustre, w, false)
		if i == 0 {
			b.Logf("image loading: burst buffer %.0fs vs lustre %.0fs (total %.0fs vs %.0fs)",
				rb.Components.ImageLoading, rl.Components.ImageLoading,
				rb.Components.Total(), rl.Components.Total())
		}
	}
}

// BenchmarkTwoStageAblation compares one-stage and two-stage partitions on a
// small survey: the shifted second stage exists to give boundary sources a
// task interior to converge in (Section IV-A).
func BenchmarkTwoStageAblation(b *testing.B) {
	cfg := DefaultSurveyConfig(17)
	cfg.Region = geom.NewBox(0, 0, 0.015, 0.015)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 160, 160
	cfg.SourceDensity = 35000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(12), math.Log(15)}
	sv := GenerateSurvey(cfg)
	init := sv.NoisyCatalog(18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one := Infer(sv, init, InferConfig{Threads: 8, Rounds: 1, MaxIter: 15,
			TargetWork: 4e5})
		if i == 0 {
			two := Infer(sv, init, InferConfig{Threads: 8, Rounds: 2, MaxIter: 15,
				TargetWork: 4e5})
			b.Logf("tasks: %d; position error one-pass %.3f px vs two-stage %.3f px",
				len(two.Tasks), meanPosErr(sv, one.Catalog), meanPosErr(sv, two.Catalog))
		}
	}
}

func meanPosErr(sv *Survey, cat []CatalogEntry) float64 {
	var s, n float64
	for i := range sv.Truth {
		s += geom.Dist(sv.Truth[i].Pos, cat[i].Pos) / sv.Config.PixScale
		n++
	}
	return s / n
}

// BenchmarkVIvsMCMC quantifies the paper's Section II motivation: MCMC needs
// thousands of full-likelihood evaluations to characterize one source's
// posterior, where variational inference needs tens of Newton iterations.
func BenchmarkVIvsMCMC(b *testing.B) {
	pb, init := singleSourceScene(14)
	var entry model.CatalogEntry
	entry.Pos = geom.Pt2{RA: init[model.ParamRA], Dec: init[model.ParamDec]}
	c := init.Constrained()
	entry = model.Summarize(0, &c)

	b.Run("vi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := vi.FitWith(pb, init, vi.Options{MaxIter: 40}, vi.NewScratch())
			if i == 0 {
				b.Logf("VI: %d Newton iterations, %d derivative evaluations",
					r.Iters, r.FullEvals)
			}
		}
	})
	b.Run("mcmc", func(b *testing.B) {
		// Rebuild a sampling problem over the same patches.
		priors := model.DefaultPriors()
		images := sceneImagesForMCMC(14)
		mp := mcmc.NewProblem(&priors, images, entry.Pos, 12)
		for i := 0; i < b.N; i++ {
			res := mp.Run(mcmc.InitState(&entry), rng.New(15),
				mcmc.Options{Samples: 1000, BurnIn: 300})
			if i == 0 {
				b.Logf("MCMC: %d likelihood evaluations for 1000 samples (acceptance %.2f)",
					res.LogLikeEvals, res.AcceptanceRate)
			}
		}
	})
}

// sceneImagesForMCMC regenerates the singleSourceScene images (the elbo
// problem does not retain them).
func sceneImagesForMCMC(seed uint64) []*survey.Image {
	images, _ := benchfix.SceneImages(seed)
	return images
}

// BenchmarkHotPath times the per-source fit pipeline's hot paths on
// fixed-seed scenes with warm scratch buffers: the three ELBO tiers, serial
// and 8-worker multi-image evaluation, a whole Newton fit, a joint Cyclades
// sweep, and the cached catalog query. Run with -benchmem. It is a tool for
// measuring while working, not a record: bench/ is the perf record and gate,
// and the steady-state allocation budgets of these paths are ordinary tests
// (DESIGN.md, "Performance harness").
func BenchmarkHotPath(b *testing.B) {
	for _, sub := range []struct {
		name string
		body func(*testing.B) int64
	}{
		{"elbo-eval", benchElboEval},
		{"elbo-eval-multi", benchElboEvalMulti},
		{"elbo-eval-par", benchElboEvalPar},
		{"elbo-evalgrad", benchElboEvalGrad},
		{"elbo-evalvalue", benchElboEvalValue},
		{"vi-fit", benchViFit},
		{"core-process", benchCoreProcess},
		{"catalog-query", benchCatalogQuery},
	} {
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			visits := sub.body(b)
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(visits)/s, "visits/s")
			}
		})
	}
}

// The hot-path bodies below each warm their scratch before the timed loop and
// return the total active-pixel visits.

// benchElboEval measures steady-state derivative evaluation (EvalInto).
func benchElboEval(b *testing.B) int64 {
	pb, init := benchfix.SingleSourceScene(11)
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

// benchElboEvalGrad measures the middle evaluation tier (EvalGradInto): value
// and gradient without Hessian moments, the cost of a lazy-Hessian accepted
// step.
func benchElboEvalGrad(b *testing.B) int64 {
	pb, init := benchfix.SingleSourceScene(11)
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

// benchElboEvalValue measures the value-only trust-region ratio-test path.
func benchElboEvalValue(b *testing.B) int64 {
	pb, init := benchfix.SingleSourceScene(11)
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

// benchElboEvalMulti measures serial steady-state derivative evaluation on
// the 15-patch multi-image fixture — the baseline the parallel lane's
// speedup is read against.
func benchElboEvalMulti(b *testing.B) int64 {
	pb, init := multiImageScene(11)
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

// benchElboEvalPar measures the same multi-image evaluation fanned out to 8
// patch workers. The result is bitwise identical to benchElboEvalMulti's;
// only the wall clock differs (by up to the core count, 15 patches / 8
// workers bounding the critical path at 2 patch sweeps).
func benchElboEvalPar(b *testing.B) int64 {
	pb, init := multiImageScene(11)
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

// benchViFit measures a whole warm-scratch Newton trust-region fit.
func benchViFit(b *testing.B) int64 {
	pb, init := benchfix.SingleSourceScene(11)
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

// catalogFixture builds a deterministic synthetic posterior catalog of n
// sources over the unit sky box for the catalog-query lane.
func catalogFixture(seed uint64, n int) (geom.Box, []model.CatalogEntry) {
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

// catalogQueryTargets returns the fixed request-target cycle the query lane
// measures: cone, box, and brightest-N queries spread over the footprint.
func catalogQueryTargets() []string {
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

// benchCatalogQuery measures the cached catalog-query hot path: the fixed
// target cycle is warmed once (cold executions populate the snapshot cache),
// then the timed loop serves the same targets — one atomic snapshot load and
// one lock-free cache read per query, the path the load test drives at
// hundreds of thousands of queries per second. Returns 0 visits (no pixels).
func benchCatalogQuery(b *testing.B) int64 {
	box, entries := catalogFixture(29, 20000)
	srv := catserve.NewServer(catserve.NewStore(box, entries, catserve.Options{}))
	targets := catalogQueryTargets()
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

// benchCoreProcess measures a joint Cyclades sweep over the fixed region,
// warming the worker-scratch pools first so the recorded allocs/op reflect
// the steady state a long-running task sweep sees.
func benchCoreProcess(b *testing.B) int64 {
	rg, cfg, init := benchfix.SmallRegion(21)
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

// multiImageScene builds the multi-epoch fixture for the intra-fit
// parallelism lanes: three epochs of the five-band benchfix.SceneImages galaxy (15
// patches), with per-epoch calibration differences but identical geometry —
// same WCS, size, and PSF across epochs — so every patch sweeps the same row
// widths and a warm parallel scratch stays allocation-free regardless of
// which worker claims which patch.
func multiImageScene(seed uint64) (*elbo.Problem, model.Params) {
	r := rng.New(seed)
	truth := model.CatalogEntry{
		Pos: geom.Pt2{RA: 0.003, Dec: 0.003}, ProbGal: 1,
		Flux:       [model.NumBands]float64{10, 15, 20, 23, 25},
		GalDevFrac: 0.3, GalAxisRatio: 0.6, GalAngle: 0.8, GalScale: 2 * benchfix.PixScale,
	}
	var images []*survey.Image
	size := 48
	for ep := 0; ep < 3; ep++ {
		for band := 0; band < model.NumBands; band++ {
			w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*benchfix.PixScale,
				truth.Pos.Dec-float64(size)/2*benchfix.PixScale, benchfix.PixScale)
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
