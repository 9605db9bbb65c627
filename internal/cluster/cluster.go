// Package cluster is a discrete-event simulator of Celeste's production
// environment — Cori Phase II: nodes of 68-core Xeon Phi processors running
// 17 processes of 8 threads each, fed tasks by the real Dtree scheduler
// (internal/dtree), loading images through a Burst Buffer model. It replays
// the paper's runtime accounting (Section VII: task processing, image
// loading, load imbalance, other) at full machine scale, which a laptop
// obviously cannot execute for real; per DESIGN.md this simulator is the
// substitution for the 9688-node machine, with per-thread compute rates
// calibrated to the paper's measured FLOP rates.
//
// The simulation advances per-process virtual clocks through a min-heap:
// the earliest-free process pulls its next task index from the Dtree
// scheduler and advances by the task's modeled duration. Task durations
// come from a heavy-tailed workload model (the paper's tasks are
// equalized by expected bright pixels but still vary, Section IV-A).
package cluster

import (
	"container/heap"
	"math"

	"celeste/internal/dtree"
	"celeste/internal/flops"
	"celeste/internal/rng"
)

// Machine describes the simulated hardware, with defaults modeling Cori
// Phase II as the paper used it.
type Machine struct {
	Nodes          int
	ProcsPerNode   int     // paper: 17
	ThreadsPerProc int     // paper: 8
	CoresPerNode   int     // 68; hyperthreading allows up to 4x
	ThreadGFLOPs   float64 // effective DP GFLOP/s per busy thread on this code

	// Burst Buffer model: aggregate bandwidth shared by all processes plus
	// a per-task metadata latency.
	BBBandwidthGBs float64 // aggregate GB/s (Cori: ~1700)
	BBLatency      float64 // seconds per first-task load setup

	// Interconnect latency for a scheduler request hop.
	NetLatency float64

	// StreamBWGBs caps a single process's Burst Buffer read stream; the
	// paper's loading times are flat across scales because per-stream
	// bandwidth, not aggregate bandwidth, is the binding constraint until
	// the full machine saturates the aggregate.
	StreamBWGBs float64

	// SustainedEff scales the per-thread rate for standard production runs
	// relative to the synchronized peak configuration (Section VII-D): the
	// paper sustains 693 TFLOP/s of task processing on 9600 nodes versus a
	// 1.54 PFLOP/s peak, a ratio of ~0.45.
	SustainedEff float64
}

// DefaultMachine returns the Cori Phase II model. ThreadGFLOPs is calibrated
// so that the paper's peak configuration (9568 nodes x 17 procs x 8 threads,
// synchronized start, SustainedEff 1) reaches 1.54 PFLOP/s when fully busy.
func DefaultMachine(nodes int) Machine {
	m := Machine{
		Nodes:          nodes,
		ProcsPerNode:   17,
		ThreadsPerProc: 8,
		CoresPerNode:   68,
		BBBandwidthGBs: 1700,
		BBLatency:      2.0,
		NetLatency:     3e-6,
		StreamBWGBs:    0.012,
		SustainedEff:   0.45,
	}
	perProcPeak := 1.54e15 / float64(9568*17)
	m.ThreadGFLOPs = perProcPeak / (8 * ThreadEfficiency(8) * nodeEffFactor(m, 17, 8)) / 1e9
	return m
}

// Workload describes the task population.
type Workload struct {
	Tasks int
	// VisitsMean/Sigma parameterize the lognormal active-pixel-visit count
	// per task; HeavyFrac of tasks additionally cost HeavyMult more
	// (dense or deeply-imaged regions).
	VisitsMean  float64
	VisitsSigma float64
	HeavyFrac   float64
	HeavyMult   float64

	// ImageGBPerTask is the data volume a process must stage for its first
	// task (later loads are prefetched behind computation).
	ImageGBPerTask float64

	Seed uint64
}

// DefaultWorkload sizes tasks like the paper's: roughly 500 sources per
// task, each visited tens of times across bands and epochs.
func DefaultWorkload(tasks int) Workload {
	return Workload{
		Tasks:          tasks,
		VisitsMean:     1.1e7,
		VisitsSigma:    0.24,
		HeavyFrac:      0.01,
		HeavyMult:      2.0,
		ImageGBPerTask: 1.2,
		Seed:           1,
	}
}

// Components is the paper's runtime breakdown (Section VII-C), in seconds,
// averaged over processes so the parts stack to the average total.
type Components struct {
	TaskProcessing float64
	ImageLoading   float64
	LoadImbalance  float64
	Other          float64
}

// Total returns the stacked total.
func (c Components) Total() float64 {
	return c.TaskProcessing + c.ImageLoading + c.LoadImbalance + c.Other
}

// Result reports one simulated run.
type Result struct {
	Components Components
	Makespan   float64 // seconds, max over processes
	Visits     int64   // total active pixel visits

	// Sustained FLOP rates over increasing subsets of runtime (Table I).
	TFLOPsTaskProcessing float64
	TFLOPsPlusImbalance  float64
	TFLOPsPlusLoading    float64

	// FLOPRateSeries samples the aggregate FLOP rate at fixed intervals
	// (the Section VII-D methodology); entries are PFLOP/s per bucket.
	FLOPRateSeries []float64
	PeakPFLOPs     float64

	Processes int

	// Fault-recovery accounting (zero for fault-free runs): processes that
	// died, tasks the scheduler requeued from dead processes, and compute
	// seconds lost to partially-executed tasks that had to restart.
	FailedProcs   int
	RequeuedTasks int
	LostSeconds   float64

	// StolenTasks counts tasks moved between process pools by work
	// stealing (zero unless SimOptions.Steal is on).
	StolenTasks int
}

// ThreadEfficiency models intra-task thread scaling: Cyclades keeps threads
// busy except for the trailing sources of each task (Section VII-B), so
// efficiency decays gently with more threads per process.
func ThreadEfficiency(threads int) float64 {
	return 1 / (1 + 0.018*float64(threads-1))
}

// nodeEffFactor models per-node throughput versus the process x thread
// configuration: hyperthread returns diminish beyond two hardware threads
// per core, too many processes contend for memory and I/O, and too few
// hardware threads leave the vector units idle.
func nodeEffFactor(m Machine, procs, threads int) float64 {
	total := procs * threads
	cores := m.CoresPerNode
	// Hyperthread scaling on KNL: near-linear to one hardware thread per
	// core, best throughput around two per core, mild decline toward four,
	// oversubscription penalty beyond.
	var hw float64
	t := float64(total)
	c := float64(cores)
	switch {
	case total <= cores:
		hw = t
	case total <= 2*cores:
		hw = c * (1 + 0.6*(t/c-1))
	case total <= 4*cores:
		hw = 1.6*c - 0.11*(t-2*c)
	default:
		hw = (1.6*c - 0.11*2*c) * 4 * c / t
	}
	// Per-process fixed overhead (runtime, I/O buffers, scheduler traffic).
	procPenalty := 1 / (1 + 0.0085*float64(procs))
	return hw / t * procPenalty
}

// ProcRate returns one process's sustained FLOP/s in this configuration.
func ProcRate(m Machine) float64 {
	eff := m.SustainedEff
	if eff == 0 {
		eff = 1
	}
	return float64(m.ThreadsPerProc) * m.ThreadGFLOPs * 1e9 *
		ThreadEfficiency(m.ThreadsPerProc) *
		nodeEffFactor(m, m.ProcsPerNode, m.ThreadsPerProc) * eff
}

// TaskSeconds returns the modeled duration of a task with the given visit
// count on one process.
func TaskSeconds(m Machine, visits float64) float64 {
	return visits * flops.PerVisit * flops.OutsideObjectiveFactor / ProcRate(m)
}

// GenerateVisits draws the per-task active-pixel-visit counts.
func GenerateVisits(w Workload) []float64 {
	r := rng.New(w.Seed)
	visits := make([]float64, w.Tasks)
	mu := math.Log(w.VisitsMean) - w.VisitsSigma*w.VisitsSigma/2
	for i := range visits {
		v := r.LogNormal(mu, w.VisitsSigma)
		if r.Float64() < w.HeavyFrac {
			v *= w.HeavyMult
		}
		visits[i] = v
	}
	return visits
}

// procState is a heap entry: a process and the time it becomes free.
type procState struct {
	free float64
	rank int
}

type procHeap []procState

func (h procHeap) Len() int            { return len(h) }
func (h procHeap) Less(i, j int) bool  { return h[i].free < h[j].free }
func (h procHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x interface{}) { *h = append(*h, x.(procState)) }
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Simulate runs the DES for one machine and workload configuration.
// synchronizedStart replicates the Section VII-D performance-run setup:
// processes block after loading images and start computing together.
func Simulate(m Machine, w Workload, synchronizedStart bool) *Result {
	return SimulateOpts(m, w, synchronizedStart, SimOptions{})
}

// A Fault is one scheduled failure or slowdown of a simulated process,
// triggered by its progress: after it has completed AfterTasks tasks.
type Fault struct {
	Rank       int
	AfterTasks int // trigger after the process completes this many tasks

	// Kill: the process dies while processing its next task — the work is
	// lost and the task (plus the process's undistributed pool) is requeued.
	Kill bool

	// DelaySeconds: the process stalls this long before each subsequent
	// task (a straggler: thermal throttling, a sick burst-buffer stream, a
	// noisy neighbor). Ignored when Kill is set.
	DelaySeconds float64
}

// killAfter reports whether rank is scheduled to die, and after how many
// completed tasks. The earliest kill wins when several target one rank.
func killAfter(faults []Fault, rank int) (after int, ok bool) {
	for _, f := range faults {
		if f.Kill && f.Rank == rank && (!ok || f.AfterTasks < after) {
			after, ok = f.AfterTasks, true
		}
	}
	return after, ok
}

// delayFor returns the stall to apply before the task following `completed`
// completed tasks on rank (the sum of all triggered delay faults).
func delayFor(faults []Fault, rank, completed int) float64 {
	var d float64
	for _, f := range faults {
		if !f.Kill && f.Rank == rank && completed >= f.AfterTasks {
			d += f.DelaySeconds
		}
	}
	return d
}

// SimOptions extends the simulation with elastic-runtime behaviors.
type SimOptions struct {
	// Faults are the injected faults (none for a fault-free run). Killed
	// processes die halfway through the task that follows their trigger
	// count — the partial work is lost, the in-flight task and the
	// process's undistributed pool are requeued through Dtree onto the
	// survivors — and delayed processes stall before each subsequent task.
	// Recovery cost lands where the paper's Section VII accounting would
	// see it: re-executed work in TaskProcessing on the inheriting
	// processes, the dead process's silence in LoadImbalance, and the
	// wasted partial execution plus stalls in Other.
	Faults []Fault

	// Steal lets an idle process pull from the most-loaded live process's
	// pool when its own subtree is dry, mirroring the TCP runtime's work
	// stealing. Off by default — the static-partition baseline the paper
	// measures — so Simulate's results are unchanged.
	Steal bool
}

// SimulateOpts is the full-option entry point for the DES.
func SimulateOpts(m Machine, w Workload, synchronizedStart bool, opts SimOptions) *Result {
	nProcs := m.Nodes * m.ProcsPerNode
	visits := GenerateVisits(w)
	sched := dtree.New(dtree.Config{}, nProcs, w.Tasks)

	// First-task image loading: per-stream bandwidth bound until the
	// aggregate Burst Buffer bandwidth saturates at full machine scale.
	perProcBW := math.Min(m.StreamBWGBs, m.BBBandwidthGBs/float64(nProcs))
	loadSec := w.ImageGBPerTask/perProcBW + m.BBLatency
	depth := float64(dtree.Depth(nProcs, 8) + 1)

	type perProc struct {
		busy   float64 // task processing
		other  float64
		tasks  int
		finish float64
	}
	procs := make([]perProc, nProcs)

	h := make(procHeap, nProcs)
	for r := 0; r < nProcs; r++ {
		h[r] = procState{free: loadSec, rank: r}
	}
	heap.Init(&h)

	var totalVisits float64
	type interval struct{ start, end, flopRate float64 }
	var busyIntervals []interval

	var failedProcs int
	var lostSeconds float64
	tasksDone := 0
	doneAtReseed := -1
	dead := make([]bool, nProcs)

	// A drained process may still be needed: a later failure can requeue
	// tasks into a pool only that process's subtree reaches. When the heap
	// empties with tasks outstanding, re-admit every surviving process at
	// its finish time (no-op if all are dead or no progress was made since
	// the last re-seed — then the remaining tasks are genuinely stranded).
	reseedIfStalled := func() {
		if h.Len() > 0 || tasksDone >= w.Tasks || tasksDone == doneAtReseed {
			return
		}
		doneAtReseed = tasksDone
		for r := 0; r < nProcs; r++ {
			if !dead[r] {
				heap.Push(&h, procState{free: procs[r].finish, rank: r})
			}
		}
	}

	for h.Len() > 0 {
		ps := heap.Pop(&h).(procState)
		p := &procs[ps.rank]
		task, ok := sched.Next(ps.rank)
		if !ok && opts.Steal {
			// Idle process with a dry subtree: pull from the most-loaded
			// live pool instead of parking until a reseed.
			task, ok = sched.Steal(ps.rank)
		}
		if !ok {
			p.finish = ps.free
			reseedIfStalled()
			continue
		}
		dur := TaskSeconds(m, visits[task])
		start := ps.free
		if synchronizedStart && p.tasks == 0 {
			start = loadSec // all processes released together
		}
		if killAfter, kills := killAfter(opts.Faults, ps.rank); kills && p.tasks >= killAfter {
			// The process dies halfway through this task: the partial
			// execution is wasted and the task returns to the pool for a
			// surviving process.
			const deadFrac = 0.5
			failedProcs++
			dead[ps.rank] = true
			lostSeconds += deadFrac * dur
			p.other += deadFrac * dur
			p.finish = start + deadFrac*dur
			sched.Fail(ps.rank)
			reseedIfStalled()
			continue
		}
		over := depth * m.NetLatency * 1000 // request round trip + bookkeeping
		over += 0.05                        // result write-back
		if d := delayFor(opts.Faults, ps.rank, p.tasks); d > 0 {
			start += d // straggler stall before the task
			p.other += d
		}
		p.busy += dur
		p.other += over
		p.tasks++
		totalVisits += visits[task]
		busyIntervals = append(busyIntervals, interval{
			start: start, end: start + dur,
			flopRate: flops.Total(int64(visits[task])) / dur,
		})
		sched.Done(ps.rank, task)
		tasksDone++
		heap.Push(&h, procState{free: start + dur + over, rank: ps.rank})
	}

	var makespan float64
	for i := range procs {
		if procs[i].finish > makespan {
			makespan = procs[i].finish
		}
	}

	res := &Result{Makespan: makespan, Visits: int64(totalVisits), Processes: nProcs,
		FailedProcs: failedProcs, RequeuedTasks: int(sched.Requeued()), LostSeconds: lostSeconds,
		StolenTasks: int(sched.Stolen())}
	var sumBusy, sumOther, sumImb float64
	for i := range procs {
		sumBusy += procs[i].busy
		sumOther += procs[i].other
		sumImb += makespan - procs[i].finish
	}
	n := float64(nProcs)
	res.Components = Components{
		TaskProcessing: sumBusy / n,
		ImageLoading:   loadSec,
		LoadImbalance:  sumImb / n,
		Other:          sumOther / n,
	}

	// Table I rates: aggregate FLOPs over per-process-average time subsets.
	fl := flops.Total(res.Visits)
	c := res.Components
	res.TFLOPsTaskProcessing = fl / c.TaskProcessing / 1e12
	res.TFLOPsPlusImbalance = fl / (c.TaskProcessing + c.LoadImbalance) / 1e12
	res.TFLOPsPlusLoading = fl / (c.TaskProcessing + c.LoadImbalance + c.ImageLoading) / 1e12

	// FLOP rate sampled at one-minute intervals (Section VII-D).
	const bucket = 60.0
	nb := int(makespan/bucket) + 1
	series := make([]float64, nb)
	for _, iv := range busyIntervals {
		b0 := int(iv.start / bucket)
		b1 := int(iv.end / bucket)
		for b := b0; b <= b1 && b < nb; b++ {
			lo := math.Max(iv.start, float64(b)*bucket)
			hi := math.Min(iv.end, float64(b+1)*bucket)
			if hi > lo {
				series[b] += iv.flopRate * (hi - lo) / bucket
			}
		}
	}
	for b, v := range series {
		series[b] = v / 1e15
		if series[b] > res.PeakPFLOPs {
			res.PeakPFLOPs = series[b]
		}
	}
	res.FLOPRateSeries = series
	return res
}

// Table1Config returns the machine and workload of the paper's sustained-
// rate measurement (Table I): 9600 nodes, 326,400 tasks (two per process),
// a production sweep whose tasks are well equalized, with the full 5.5 GB
// worst-case image volume staged per process amortized to ~3.8 GB effective.
func Table1Config() (Machine, Workload) {
	m := DefaultMachine(9600)
	w := DefaultWorkload(326400)
	w.VisitsSigma = 0.12
	w.HeavyFrac = 0
	w.ImageGBPerTask = 3.8
	return m, w
}

// WeakScaling runs the Figure 4 experiment: 68 tasks per node (4 per
// process) at each node count.
func WeakScaling(nodeCounts []int, seed uint64) []*Result {
	out := make([]*Result, len(nodeCounts))
	for i, n := range nodeCounts {
		m := DefaultMachine(n)
		w := DefaultWorkload(68 * n)
		w.Seed = seed
		out[i] = Simulate(m, w, false)
	}
	return out
}

// StrongScaling runs the Figure 5 experiment: all 557,056 tasks at each node
// count.
func StrongScaling(nodeCounts []int, seed uint64) []*Result {
	out := make([]*Result, len(nodeCounts))
	for i, n := range nodeCounts {
		m := DefaultMachine(n)
		w := DefaultWorkload(557056)
		w.Seed = seed
		out[i] = Simulate(m, w, false)
	}
	return out
}

// NodeConfigThroughput reports relative per-node throughput for a processes
// x threads configuration (Section VII-B): work rate per node normalized by
// the paper's 17x8 choice.
func NodeConfigThroughput(m Machine, procs, threads int) float64 {
	mm := m
	mm.ProcsPerNode = procs
	mm.ThreadsPerProc = threads
	rate := float64(procs*threads) * mm.ThreadGFLOPs *
		ThreadEfficiency(threads) * nodeEffFactor(mm, procs, threads)
	return rate
}
