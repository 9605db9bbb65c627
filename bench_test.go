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
	"celeste/internal/cluster"
	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/mcmc"
	"celeste/internal/model"
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
// benchmarks (shared with cmd/benchreport via internal/benchfix).
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

// BenchmarkHotPath is the perf-regression harness for the per-source fit
// pipeline: steady-state derivative evaluation, value-only evaluation, a
// whole Newton fit, and a joint Cyclades sweep, all on fixed-seed scenes
// with warm scratch buffers. cmd/benchreport runs the same fixtures and
// records the numbers in BENCH_elbo.json so every PR has a perf trajectory.
// Run with -benchmem: steady-state allocs/op must stay 0 for eval and fit.
func BenchmarkHotPath(b *testing.B) {
	for _, sub := range []struct {
		name string
		body func(*testing.B) int64
	}{
		{"elbo-eval", benchfix.BenchElboEval},
		{"elbo-eval-multi", benchfix.BenchElboEvalMulti},
		{"elbo-eval-par", benchfix.BenchElboEvalPar},
		{"elbo-evalgrad", benchfix.BenchElboEvalGrad},
		{"elbo-evalvalue", benchfix.BenchElboEvalValue},
		{"vi-fit", benchfix.BenchViFit},
		{"core-process", benchfix.BenchCoreProcess},
		{"catalog-query", benchfix.BenchCatalogQuery},
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
