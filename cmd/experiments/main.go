// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// recorded outputs):
//
//	experiments table1    — Table I sustained FLOP rates (9600 nodes)
//	experiments table2    — Table II Stripe 82 accuracy, Photo vs Celeste
//	experiments fig4      — Figure 4 weak scaling components
//	experiments fig5      — Figure 5 strong scaling components
//	experiments perthread — Section VII-A per-thread runtime breakdown
//	experiments pernode   — Section VII-B processes x threads sweep
//	experiments peak      — Section VII-D peak performance run
//	experiments newton    — Section IV-D Newton vs L-BFGS ablation
//
// Flags scale the hands-on experiments (table2, perthread, newton) so they
// run in seconds by default and minutes at full fidelity.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"celeste"
	"celeste/internal/cluster"
	"celeste/internal/elbo"
	"celeste/internal/flops"
	"celeste/internal/geom"
	"celeste/internal/imageio"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "random seed")
	scale := fs.Float64("scale", 1, "experiment size multiplier (table2/newton)")
	fs.Parse(os.Args[2:])

	switch cmd {
	case "table1":
		table1()
	case "table2":
		table2(*seed, *scale)
	case "fig4":
		fig4(*seed)
	case "fig5":
		fig5(*seed)
	case "perthread":
		perthread(*seed)
	case "pernode":
		pernode()
	case "peak":
		peak()
	case "newton":
		newton(*seed)
	case "failover":
		failover(*seed)
	case "all":
		table1()
		fig4(*seed)
		fig5(*seed)
		pernode()
		peak()
		perthread(*seed)
		newton(*seed)
		failover(*seed)
		table2(*seed, *scale)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments <table1|table2|fig4|fig5|perthread|pernode|peak|newton|failover|all> [-seed N] [-scale X]")
	os.Exit(2)
}

func table1() {
	fmt.Println("== Table I: sustained paper-equivalent FLOP rate (32,317 FLOP/visit, §VI-B; 9600 nodes, 326,400 tasks) ==")
	m, w := cluster.Table1Config()
	r := cluster.Simulate(m, w, false)
	fmt.Printf("%-22s %12s %12s\n", "", "paper TFLOP/s", "ours TFLOP/s")
	fmt.Printf("%-22s %12.2f %12.2f\n", "task processing", 693.69, r.TFLOPsTaskProcessing)
	fmt.Printf("%-22s %12.2f %12.2f\n", "+load imbalance", 413.19, r.TFLOPsPlusImbalance)
	fmt.Printf("%-22s %12.2f %12.2f\n", "+image loading", 211.94, r.TFLOPsPlusLoading)
	fmt.Printf("makespan %.0f s (paper: ~420 s)\n\n", r.Makespan)
}

func table2(seed uint64, scale float64) {
	fmt.Println("== Table II: Stripe 82 validation, Photo vs Celeste ==")
	start := time.Now()

	// A deep strip imaged by many runs; validation compares single-epoch
	// analyses against exactly known ground truth (our synthetic analogue of
	// the coadd-derived truth; see DESIGN.md substitutions).
	cfg := celeste.DefaultSurveyConfig(seed)
	side := 0.03 * math.Sqrt(scale)
	cfg.Region = geom.NewBox(0, 0, side, side)
	cfg.DeepRegion = cfg.Region
	cfg.Runs = 1
	cfg.DeepRuns = 0
	cfg.FieldW, cfg.FieldH = 160, 160
	cfg.SourceDensity = 40000
	// A population bright and compact enough that the heuristic baseline
	// detects most sources, as in the paper's validation region (galaxies
	// near the surface-brightness limit would all be "missed" by Photo,
	// which tells us nothing about estimation accuracy).
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(15), math.Log(25)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.5, 0.5}
	cfg.Priors.GalScaleLogMean = math.Log(1.2 / 3600)
	cfg.Priors.GalScaleLogSD = 0.35
	sv := celeste.GenerateSurvey(cfg)
	fmt.Printf("synthetic Stripe 82 strip: %d sources, %d frames\n",
		len(sv.Truth), len(sv.Images))

	// Photo: detection + measurement on the single run's imagery.
	photoCat := celeste.RunPhoto(sv.Images)

	// Celeste: joint VI on the same imagery, initialized from the noisy
	// preexisting catalog.
	init := sv.NoisyCatalog(seed + 1)
	res := celeste.Infer(sv, init, celeste.InferConfig{
		Threads: 8, Rounds: 2, MaxIter: 30, Seed: seed,
	})

	rows := celeste.CompareToTruth(sv, photoCat, res.Catalog)
	fmt.Print(celeste.FormatComparison(rows))
	fmt.Printf("(%d fits, %.1fM active pixel visits, %s)\n\n",
		res.Fits, float64(res.Visits)/1e6, time.Since(start).Round(time.Second))
}

func fig4(seed uint64) {
	fmt.Println("== Figure 4: weak scaling (68 tasks/node) ==")
	nodes := []int{1, 2, 8, 32, 128, 512, 2048, 8192}
	results := celeste.WeakScaling(nodes, seed)
	fmt.Printf("%6s %10s %10s %10s %8s %8s\n",
		"nodes", "task proc", "img load", "imbalance", "other", "total")
	for i, r := range results {
		c := r.Components
		fmt.Printf("%6d %10.1f %10.1f %10.1f %8.1f %8.1f\n",
			nodes[i], c.TaskProcessing, c.ImageLoading, c.LoadImbalance,
			c.Other, c.Total())
	}
	ratio := results[len(results)-1].Components.Total() / results[0].Components.Total()
	fmt.Printf("runtime growth 1 -> 8192 nodes: %.2fx (paper: 1.9x)\n\n", ratio)
}

func fig5(seed uint64) {
	fmt.Println("== Figure 5: strong scaling (557,056 tasks) ==")
	nodes := []int{2048, 4096, 8192}
	results := celeste.StrongScaling(nodes, seed)
	fmt.Printf("%6s %10s %10s %10s %8s %8s\n",
		"nodes", "task proc", "img load", "imbalance", "other", "total")
	for i, r := range results {
		c := r.Components
		fmt.Printf("%6d %10.1f %10.1f %10.1f %8.1f %8.1f\n",
			nodes[i], c.TaskProcessing, c.ImageLoading, c.LoadImbalance,
			c.Other, c.Total())
	}
	t := func(i int) float64 { return results[i].Components.Total() }
	fmt.Printf("efficiency 2k->4k: %.0f%% (paper: 65%%)   2k->8k: %.0f%% (paper: 50%%)\n\n",
		100*t(0)/(2*t(1)), 100*t(0)/(4*t(2)))
}

func perthread(seed uint64) {
	fmt.Println("== Section VII-A: per-thread runtime breakdown ==")
	// Fit a realistic source and attribute wall time.
	r := rng.New(seed)
	priors := model.DefaultPriors()
	pixScale := 1.1e-4
	truth := model.CatalogEntry{
		Pos: geom.Pt2{RA: 0.003, Dec: 0.003}, ProbGal: 1,
		Flux:       [model.NumBands]float64{8, 12, 16, 18, 20},
		GalDevFrac: 0.4, GalAxisRatio: 0.7, GalAngle: 0.9, GalScale: 2 * pixScale,
	}
	var images []*survey.Image
	size := 56
	for ep := 0; ep < 2; ep++ {
		for b := 0; b < model.NumBands; b++ {
			w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*pixScale,
				truth.Pos.Dec-float64(size)/2*pixScale, pixScale)
			p := psf.Default(1.2)
			im := &survey.Image{Band: b, W: size, H: size, WCS: w, PSF: p,
				Iota: 100, Sky: 80, Pixels: make([]float64, size*size)}
			for i := range im.Pixels {
				im.Pixels[i] = 80
			}
			model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, b, 100, 6)
			for i, lam := range im.Pixels {
				im.Pixels[i] = float64(r.Poisson(lam))
			}
			images = append(images, im)
		}
	}
	pb := new(elbo.Builder).Build(&priors, images, truth.Pos, 12)
	res := vi.FitWith(pb, model.InitialParams(&truth), vi.Options{}, vi.NewScratch())
	objPct := 100 * res.EvalSeconds / res.TotalSeconds
	fmt.Printf("%-44s %6s %6s\n", "component", "paper", "ours")
	fmt.Printf("%-44s %5.0f%% %5.1f%%\n",
		"objective evaluation (generated kernel code)", 67.0, objPct)
	fmt.Printf("%-44s %5.0f%% %5.1f%%\n",
		"optimizer linear algebra + runtime + other", 33.0, 100-objPct)
	fmt.Printf("fit: %d Newton iters, %d visits, %.0f ms total\n\n",
		res.Iters, res.Visits, res.TotalSeconds*1e3)
}

func pernode() {
	fmt.Println("== Section VII-B: per-node configuration sweep ==")
	m := celeste.DefaultMachine(1)
	fmt.Printf("%6s %8s %14s\n", "procs", "threads", "rel throughput")
	best, bestP, bestT := 0.0, 0, 0
	for _, procs := range []int{4, 8, 17, 34, 68} {
		for _, threads := range []int{2, 4, 8, 16} {
			if procs*threads > 272 {
				continue
			}
			v := cluster.NodeConfigThroughput(m, procs, threads)
			fmt.Printf("%6d %8d %14.1f\n", procs, threads, v)
			if v > best {
				best, bestP, bestT = v, procs, threads
			}
		}
	}
	fmt.Printf("best: %d procs x %d threads (paper: 17 x 8)\n\n", bestP, bestT)
}

func peak() {
	fmt.Println("== Section VII-D: peak performance run (9568 nodes, synchronized) ==")
	m := celeste.DefaultMachine(9568)
	m.SustainedEff = 1
	w := celeste.DefaultWorkload(9568 * 17 * 4)
	r := celeste.SimulateCluster(m, w, true)
	fmt.Printf("peak: %.2f PFLOP/s (paper: 1.54)\n", r.PeakPFLOPs)
	fmt.Println("PFLOP/s by minute:")
	for i, v := range r.FLOPRateSeries {
		fmt.Printf("  min %2d: %.3f\n", i, v)
	}
	fl := flops.Total(r.Visits)
	fmt.Printf("total: %.2e FLOPs over %.0f s\n\n", fl, r.Makespan)
}

// failover measures recovery cost as a function of checkpoint cadence: a
// run checkpointing every k tasks is crashed at a fixed task count (the
// coordinator dying mid-interval, so everything since the last durable
// checkpoint is lost), then resumed from that checkpoint and timed to
// completion. The re-executed tasks are the cadence's real price; the
// recovery-to-frontier column isolates it by subtracting the work a
// crash-free run would still have owed, using the baseline's per-task rate.
func failover(seed uint64) {
	fmt.Println("== Coordinator failover: recovery time vs checkpoint interval ==")
	cfg := celeste.DefaultSurveyConfig(seed)
	cfg.Region = celeste.SkyBox{MaxRA: 0.03, MaxDec: 0.03}
	cfg.DeepRegion = celeste.SkyBox{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 128, 128
	cfg.SourceDensity = 30000
	sv := celeste.GenerateSurvey(cfg)
	init := sv.NoisyCatalog(seed + 1)
	icfg := celeste.InferConfig{TargetWork: 2e4, Rounds: 1, MaxIter: 8, Seed: 9}

	t0 := time.Now()
	base, err := celeste.InferWithOptions(sv, init, icfg, celeste.InferOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
	full := time.Since(t0)
	n := base.TasksProcessed
	avg := full / time.Duration(n)
	// Crash inside stage 0, where the expensive joint fits live (commits are
	// stage-ordered, so the first stage0 commits are all stage-0 tasks) —
	// dying in the cheap boundary stage would make every cadence look free.
	stage0 := 0
	for _, tk := range base.Tasks {
		if tk.Stage == 0 {
			stage0++
		}
	}
	crash := 6 * stage0 / 10
	if crash%2 == 0 {
		// Die mid-interval at every cadence below: a boundary-aligned crash
		// would show zero loss for every interval dividing it.
		crash++
	}
	if crash > n {
		crash = 1
	}
	fmt.Printf("baseline: %d tasks in %v (%v/task); coordinator dies at task %d\n",
		n, full.Round(time.Millisecond), avg.Round(time.Microsecond), crash)

	// One crashed run captures the durable checkpoint every cadence below
	// would have on disk at the crash (the latest commit multiple of k), so
	// every cadence resumes from identical bytes.
	ks := []int{1, 2, 4, 8, 16}
	keep := map[int]*bytes.Buffer{}
	for _, k := range ks {
		if k <= crash {
			keep[crash/k*k] = &bytes.Buffer{}
		}
	}
	done := 0
	_, err = celeste.InferWithOptions(sv, init, icfg, celeste.InferOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *celeste.Checkpoint) error {
			done++
			if buf, ok := keep[done]; ok {
				if werr := imageio.WriteCheckpoint(buf, ck); werr != nil {
					return werr
				}
			}
			if done >= crash {
				return errors.New("injected coordinator crash")
			}
			return nil
		},
	})
	if !errors.Is(err, celeste.ErrRunAborted) {
		fmt.Fprintf(os.Stderr, "failover: crashed run: got %v, want abort\n", err)
		os.Exit(1)
	}

	// Resume each cadence's checkpoint to completion, repeated; the minimum
	// wall is the least-noise estimate on a shared-tenancy machine. The
	// interval-1 cadence loses nothing (its checkpoint is the crash commit
	// itself), so its wall is the measured crash-free remainder and the
	// recovery column — wall minus that reference — isolates what the
	// coarser cadences pay in re-executed work.
	const reps = 5
	resume := func(k int) time.Duration {
		ck, err := imageio.ReadCheckpoint(bytes.NewReader(keep[crash/k*k].Bytes()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "failover: interval %d: reloading checkpoint: %v\n", k, err)
			os.Exit(1)
		}
		best := time.Duration(0)
		for r := 0; r < reps; r++ {
			t1 := time.Now()
			res, err := celeste.InferWithOptions(sv, init, icfg, celeste.InferOptions{Resume: ck})
			if err != nil {
				fmt.Fprintf(os.Stderr, "failover: interval %d: resume: %v\n", k, err)
				os.Exit(1)
			}
			w := time.Since(t1)
			if res.TasksProcessed != n {
				fmt.Fprintf(os.Stderr, "failover: interval %d: resumed run reports %d tasks, want %d\n",
					k, res.TasksProcessed, n)
				os.Exit(1)
			}
			if r == 0 || w < best {
				best = w
			}
		}
		return best
	}

	ref := resume(1)
	fmt.Printf("%-10s %12s %12s %14s %20s\n",
		"interval", "ckpts kept", "re-executed", "resume wall", "recovery cost")
	fmt.Printf("%-10d %12d %12d %14v %20s\n", 1, crash, 0, ref.Round(time.Millisecond), "(reference)")
	for _, k := range ks[1:] {
		if k > crash {
			break
		}
		wall := resume(k)
		fmt.Printf("%-10d %12d %12d %14v %20v\n",
			k, crash/k, crash-crash/k*k, wall.Round(time.Millisecond),
			(wall - ref).Round(time.Millisecond))
	}
	fmt.Println()
}

func newton(seed uint64) {
	fmt.Println("== Section IV-D ablation: Newton trust region vs L-BFGS ==")
	r := rng.New(seed)
	priors := model.DefaultPriors()
	pixScale := 1.1e-4
	truth := model.CatalogEntry{
		Pos: geom.Pt2{RA: 0.003, Dec: 0.003}, ProbGal: 1,
		Flux:       [model.NumBands]float64{10, 15, 20, 23, 25},
		GalDevFrac: 0.3, GalAxisRatio: 0.6, GalAngle: 0.8, GalScale: 2 * pixScale,
	}
	var images []*survey.Image
	size := 48
	for b := 0; b < model.NumBands; b++ {
		w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*pixScale,
			truth.Pos.Dec-float64(size)/2*pixScale, pixScale)
		p := psf.Default(1.2)
		im := &survey.Image{Band: b, W: size, H: size, WCS: w, PSF: p,
			Iota: 100, Sky: 80, Pixels: make([]float64, size*size)}
		for i := range im.Pixels {
			im.Pixels[i] = 80
		}
		model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, b, 100, 6)
		for i, lam := range im.Pixels {
			im.Pixels[i] = float64(r.Poisson(lam))
		}
		images = append(images, im)
	}
	init := truth
	init.Pos.RA += 0.8 * pixScale
	init.Flux[model.RefBand] *= 1.3
	ip := model.InitialParams(&init)

	pbn := new(elbo.Builder).Build(&priors, images, truth.Pos, 12)
	tn := time.Now()
	rn := vi.FitWith(pbn, ip, vi.Options{GradTol: 1e-4}, vi.NewScratch())
	newtonSec := time.Since(tn).Seconds()

	pbl := new(elbo.Builder).Build(&priors, images, truth.Pos, 12)
	tl := time.Now()
	// The paper observed up to 2000 L-BFGS iterations; 300 keeps this demo
	// affordable while still showing non-convergence where Newton needs tens.
	rl := vi.FitLBFGS(pbl, ip, 300)
	lbfgsSec := time.Since(tl).Seconds()

	fmt.Printf("%-18s %10s %10s %12s %10s\n", "optimizer", "iters", "ELBO", "wall (s)", "converged")
	fmt.Printf("%-18s %10d %10.1f %12.2f %10v\n", "Newton TR", rn.Iters, rn.ELBO, newtonSec, rn.Converged)
	fmt.Printf("%-18s %10d %10.1f %12.2f %10v\n", "L-BFGS", rl.Iters, rl.ELBO, lbfgsSec, rl.Converged)
	fmt.Println("(paper: Newton converges in tens of iterations; L-BFGS takes up to 2000)")
	fmt.Println()
}
