package main

import (
	"math"
	"time"
)

// workload is one pinned benchmark input and invocation. The sizes are the
// ISSUE's shapes shrunk until one celeste run takes 4 to 7 s on the 2-core
// reference box, so that a run of the benchmark fits its draws beside their
// set-up in about half a minute (the acceptance procedure makes 92 runs in
// under an hour).
type workload struct {
	Name string

	// Inference workloads: the sky, and how celeste is invoked on it.
	Sky                          *skySpec
	Procs, Threads, PatchThreads int
	Spawn                        int     // > 0: celeste -spawn N with CELK1 checkpoints every 4 commits
	DrawSeconds                  float64 // share of a run's -seconds one draw is given; see draws

	// The serving workload.
	Serve *serveSpec
}

// serveSpec pins the consumer-side workload: a closed loop of Clients
// keep-alive connections, each sending its next request when the last one
// completes, against the in-process HTTP server.
type serveSpec struct {
	Sources  int           // catalog size
	Hot      int           // targets in the repeated cycle
	HotShare float64       // share of requests drawn from the cycle; the rest are never repeated
	Clients  int           // closed-loop connections
	Batch    int           // entries per Store.Apply in the churn phase
	Every    time.Duration // churn writer period
}

var wideSky = skySpec{PopSeed: 7, Side: 0.025, Density: 40000, Runs: 1, DeepRuns: 0, Field: 128, FluxMean: 20}

var workloads = []workload{
	// Many small tasks, one epoch: scheduler, PGAS, partition and solver
	// overhead have their largest share. Parallelism is across tasks.
	{Name: "wide_shallow", Sky: &wideSky, Procs: 2, Threads: 1, PatchThreads: 1, DrawSeconds: 6.5},
	// Stripe-82-like stack, 15 patches per source: row sweep, ELBO tiers and
	// image load dominate, the scheduler idles. Parallelism is intra-fit.
	// The stack is uniform (three full epochs, no deep strip): with half the
	// sources under 45 patches and half under 10, four sources carried the
	// run and its time moved 10% from seed to seed.
	// Six draws in 20 s, not three: with 8 sources the Newton paths, and so
	// the pixel visits of a draw, move 7% (one standard deviation) with the
	// noise alone, and the median of three still moved 5 to 8% from seed to
	// seed before the machine added its own. A draw takes 4.3 s, so this
	// workload measures for 26 s of the 20; its set-up is the cheapest.
	{Name: "deep_stack", Sky: &skySpec{PopSeed: 11, Side: 0.010, Density: 30000, Runs: 3, DeepRuns: 0, Field: 96, FluxMean: 20},
		Procs: 1, Threads: 1, PatchThreads: 2, DrawSeconds: 3.3},
	// wide_shallow's bytes through -spawn 2: every parameter read, task
	// hand-out and commit crosses the wire, checkpoints under the commit lock.
	{Name: "tcp_spawn2", Sky: &wideSky, Procs: 2, Threads: 1, PatchThreads: 1, Spawn: 2, DrawSeconds: 6.5},
	// The consumer side: cached and cold reads, then the same beside writes.
	{Name: "serve_churn", Serve: &serveSpec{Sources: 20000, Hot: 64, HotShare: 0.8, Clients: 2, Batch: 256, Every: 20 * time.Millisecond}},
}

// smoke shrinks a workload until the whole set runs inside the unit-test
// budget; it exercises every code path and measures nothing worth keeping.
func (w workload) smoke() workload {
	if w.Sky != nil {
		s := *w.Sky
		s.Side, s.Field = 0.002, 64
		s.Runs = min(s.Runs, 2)
		w.Sky = &s
		w.DrawSeconds = math.Inf(1) // one draw whatever -seconds says
	}
	if w.Serve != nil {
		s := *w.Serve
		s.Sources = 2000
		w.Serve = &s
	}
	return w
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// draws is how many independent observations of the sky one run measures.
func (w workload) draws(seconds float64) int {
	n := int(math.Round(seconds / w.DrawSeconds))
	return min(max(n, 1), 8)
}
