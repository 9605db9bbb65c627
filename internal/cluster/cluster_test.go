package cluster

import (
	"math"
	"testing"
)

func TestWeakScalingShape(t *testing.T) {
	results := WeakScaling([]int{1, 32, 512, 8192}, 1)
	// Task processing stays nearly constant (it involves no communication).
	base := results[0].Components.TaskProcessing
	for i, r := range results {
		if math.Abs(r.Components.TaskProcessing-base)/base > 0.05 {
			t.Errorf("run %d: task processing %v departs from %v", i,
				r.Components.TaskProcessing, base)
		}
	}
	// Image loading constant across scales.
	loadBase := results[0].Components.ImageLoading
	for i, r := range results {
		if math.Abs(r.Components.ImageLoading-loadBase)/loadBase > 0.10 {
			t.Errorf("run %d: image loading %v departs from %v", i,
				r.Components.ImageLoading, loadBase)
		}
	}
	// Load imbalance grows and dominates the runtime increase.
	if results[3].Components.LoadImbalance <= results[0].Components.LoadImbalance {
		t.Error("load imbalance did not grow with scale")
	}
	// Total runtime grows by roughly the paper's 1.9x (accept 1.3-2.6).
	ratio := results[3].Components.Total() / results[0].Components.Total()
	if ratio < 1.3 || ratio > 2.6 {
		t.Errorf("weak scaling total ratio = %.2f, want ~1.9", ratio)
	}
	// Other remains a small fraction throughout.
	for i, r := range results {
		if r.Components.Other > 0.05*r.Components.Total() {
			t.Errorf("run %d: 'other' = %v is not small", i, r.Components.Other)
		}
	}
}

func TestStrongScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale strong-scaling simulation; efficiency bands need the full node counts")
	}
	results := StrongScaling([]int{2048, 4096, 8192}, 1)
	t2 := results[0].Components.Total()
	t4 := results[1].Components.Total()
	t8 := results[2].Components.Total()
	// Task processing halves with doubling nodes (near-perfect scaling).
	tp2, tp4, tp8 := results[0].Components.TaskProcessing,
		results[1].Components.TaskProcessing, results[2].Components.TaskProcessing
	if math.Abs(tp2/tp4-2) > 0.1 || math.Abs(tp4/tp8-2) > 0.1 {
		t.Errorf("task processing not ~perfect: %v %v %v", tp2, tp4, tp8)
	}
	// Overall efficiency: paper reports 65% (2k->4k) and 50% (2k->8k).
	eff4 := t2 / (2 * t4)
	eff8 := t2 / (4 * t8)
	if eff4 < 0.55 || eff4 > 0.95 {
		t.Errorf("2k->4k efficiency = %.2f, want ~0.65", eff4)
	}
	if eff8 < 0.4 || eff8 > 0.75 {
		t.Errorf("2k->8k efficiency = %.2f, want ~0.50", eff8)
	}
	if !(eff8 < eff4) {
		t.Errorf("efficiency should degrade with scale: %v vs %v", eff4, eff8)
	}
}

func TestTable1Rates(t *testing.T) {
	m, w := Table1Config()
	r := Simulate(m, w, false)
	// Paper: 693.69 / 413.19 / 211.94 TFLOP/s. Accept the same ordering and
	// rough magnitudes.
	if math.Abs(r.TFLOPsTaskProcessing-693.69)/693.69 > 0.15 {
		t.Errorf("task-processing rate = %.1f TF, paper 693.69", r.TFLOPsTaskProcessing)
	}
	if r.TFLOPsPlusImbalance >= r.TFLOPsTaskProcessing {
		t.Error("adding imbalance must lower the sustained rate")
	}
	if r.TFLOPsPlusLoading >= r.TFLOPsPlusImbalance {
		t.Error("adding loading must lower the sustained rate")
	}
	if r.TFLOPsPlusLoading < 100 || r.TFLOPsPlusLoading > 350 {
		t.Errorf("full-runtime rate = %.1f TF, paper 211.94", r.TFLOPsPlusLoading)
	}
	// "completed 326,400 tasks in about seven minutes": ours should be in
	// the same ballpark (within 2x).
	if r.Makespan < 210 || r.Makespan > 1400 {
		t.Errorf("makespan = %.0f s, paper ~420 s", r.Makespan)
	}
}

func TestPeakRun(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale peak-performance simulation; the 1.54 PFLOP/s figure needs all 9568 nodes")
	}
	m := DefaultMachine(9568)
	m.SustainedEff = 1
	w := DefaultWorkload(9568 * 17 * 4)
	r := Simulate(m, w, true)
	if math.Abs(r.PeakPFLOPs-1.54)/1.54 > 0.05 {
		t.Errorf("peak = %.3f PFLOP/s, paper 1.54", r.PeakPFLOPs)
	}
	// The series must ramp down at the end (stragglers).
	last := r.FLOPRateSeries[len(r.FLOPRateSeries)-1]
	if last >= r.PeakPFLOPs {
		t.Error("FLOP rate series should decay in the final bucket")
	}
}

func TestNodeConfigSweepPrefers17x8(t *testing.T) {
	m := DefaultMachine(1)
	best := 0.0
	bestP, bestT := 0, 0
	for _, procs := range []int{1, 2, 4, 8, 17, 34, 68} {
		for _, threads := range []int{1, 2, 4, 8, 16, 32} {
			if procs*threads > 4*m.CoresPerNode {
				continue
			}
			v := NodeConfigThroughput(m, procs, threads)
			if v > best {
				best = v
				bestP, bestT = procs, threads
			}
		}
	}
	if bestP != 17 || bestT != 8 {
		t.Errorf("best config = %dx%d, paper found 17 procs x 8 threads", bestP, bestT)
	}
}

func TestEveryTaskSimulatedOnce(t *testing.T) {
	m := DefaultMachine(4)
	w := DefaultWorkload(4 * 68)
	r := Simulate(m, w, false)
	// Total visits must equal the workload's sum.
	var want float64
	for _, v := range GenerateVisits(w) {
		want += v
	}
	if math.Abs(float64(r.Visits)-want) > 1 {
		t.Errorf("visits %d, want %v", r.Visits, want)
	}
}

func TestComponentsStackToMakespanApproximately(t *testing.T) {
	m := DefaultMachine(16)
	w := DefaultWorkload(16 * 68)
	r := Simulate(m, w, false)
	// Average components stack to within a few percent of the makespan
	// (they are per-process averages; imbalance absorbs the gap).
	if d := math.Abs(r.Components.Total()-r.Makespan) / r.Makespan; d > 0.05 {
		t.Errorf("components total %v vs makespan %v", r.Components.Total(), r.Makespan)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	m := DefaultMachine(8)
	w := DefaultWorkload(8 * 68)
	a := Simulate(m, w, false)
	b := Simulate(m, w, false)
	if a.Makespan != b.Makespan || a.Visits != b.Visits {
		t.Error("simulation not deterministic")
	}
	w2 := w
	w2.Seed = 99
	c := Simulate(m, w2, false)
	if a.Makespan == c.Makespan {
		t.Error("different seeds gave identical makespans")
	}
}

func TestThreadEfficiencyDecays(t *testing.T) {
	if ThreadEfficiency(1) != 1 {
		t.Errorf("eff(1) = %v", ThreadEfficiency(1))
	}
	prev := ThreadEfficiency(1)
	for _, n := range []int{2, 4, 8, 16} {
		e := ThreadEfficiency(n)
		if e >= prev {
			t.Errorf("efficiency not decreasing at %d threads", n)
		}
		prev = e
	}
}

func BenchmarkSimulate8192Nodes(b *testing.B) {
	m := DefaultMachine(8192)
	w := DefaultWorkload(8192 * 68)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(m, w, false)
	}
}

func TestSimulateWithFaultsRecovers(t *testing.T) {
	m := DefaultMachine(2) // 34 processes
	w := DefaultWorkload(200)
	base := Simulate(m, w, false)

	fp := []Fault{
		{Rank: 3, AfterTasks: 1, Kill: true},
		{Rank: 17, AfterTasks: 0, Kill: true},
		{Rank: 0, AfterTasks: 2, Kill: true}, // the Dtree root dies too
	}
	res := SimulateOpts(m, w, false, SimOptions{Faults: fp})

	if res.FailedProcs != 3 {
		t.Fatalf("FailedProcs = %d, want 3", res.FailedProcs)
	}
	if res.RequeuedTasks < 3 {
		t.Errorf("RequeuedTasks = %d, want at least the 3 in-flight kills", res.RequeuedTasks)
	}
	if res.LostSeconds <= 0 {
		t.Error("no compute time recorded as lost")
	}
	// Every task still completes exactly once: total useful visits match the
	// fault-free run (the workload draw is identical).
	if res.Visits != base.Visits {
		t.Errorf("faulty run completed %d visits, fault-free %d", res.Visits, base.Visits)
	}
	// Recovery is visible in the Section VII accounting: the dead processes'
	// silence inflates load imbalance, and the run cannot be faster.
	if res.Makespan < base.Makespan {
		t.Errorf("makespan improved under faults: %.1f vs %.1f", res.Makespan, base.Makespan)
	}
	if res.Components.LoadImbalance <= base.Components.LoadImbalance {
		t.Errorf("load imbalance did not grow: %.2f vs %.2f",
			res.Components.LoadImbalance, base.Components.LoadImbalance)
	}
}

func TestSimulateWithStragglerDelay(t *testing.T) {
	m := DefaultMachine(1)
	w := DefaultWorkload(60)
	base := Simulate(m, w, false)
	fp := []Fault{
		{Rank: 5, AfterTasks: 0, DelaySeconds: 300},
	}
	res := SimulateOpts(m, w, false, SimOptions{Faults: fp})
	if res.Visits != base.Visits {
		t.Errorf("straggler changed completed work: %d vs %d", res.Visits, base.Visits)
	}
	if res.FailedProcs != 0 || res.RequeuedTasks != 0 {
		t.Errorf("pure delay recorded failures: %d procs, %d requeues",
			res.FailedProcs, res.RequeuedTasks)
	}
	if res.Components.Other <= base.Components.Other {
		t.Errorf("stall not accounted in Other: %.2f vs %.2f",
			res.Components.Other, base.Components.Other)
	}
}

func TestFaultQueries(t *testing.T) {
	faults := []Fault{
		{Rank: 2, AfterTasks: 5, Kill: true},
		{Rank: 2, AfterTasks: 3, Kill: true}, // earliest kill wins
		{Rank: 1, AfterTasks: 2, DelaySeconds: 0.5},
		{Rank: 1, AfterTasks: 4, DelaySeconds: 0.25},
	}
	if after, ok := killAfter(faults, 2); !ok || after != 3 {
		t.Errorf("killAfter(2) = %d, %v", after, ok)
	}
	if _, ok := killAfter(faults, 0); ok {
		t.Error("killAfter(0) found a kill")
	}
	if d := delayFor(faults, 1, 1); d != 0 {
		t.Errorf("delay before trigger = %v", d)
	}
	if d := delayFor(faults, 1, 3); d != 0.5 {
		t.Errorf("delay after first trigger = %v", d)
	}
	if d := delayFor(faults, 1, 4); d != 0.75 {
		t.Errorf("stacked delay = %v", d)
	}
	// No faults is inert.
	if _, ok := killAfter(nil, 0); ok || delayFor(nil, 0, 0) != 0 {
		t.Error("nil faults not inert")
	}
}

func TestFaultFreeSimulationUnchanged(t *testing.T) {
	// The fault plumbing must not perturb the calibrated fault-free model:
	// an empty plan's results are identical to Simulate's.
	m := DefaultMachine(4)
	w := DefaultWorkload(500)
	a := Simulate(m, w, false)
	b := SimulateOpts(m, w, false, SimOptions{Faults: []Fault{}})
	if a.Makespan != b.Makespan || a.Visits != b.Visits || a.Components != b.Components {
		t.Errorf("empty fault plan changed the simulation: %+v vs %+v", a.Components, b.Components)
	}
}

func TestLateKillAfterSurvivorsDrainStillCompletes(t *testing.T) {
	// Dtree refill only reaches a rank's ancestors, so the root cannot
	// steal from a child's static pool. Stall the child (rank 1) with a
	// huge delay: the root drains everything it can reach and leaves the
	// event heap. Then the child dies sitting on its static allocation.
	// The simulator must re-admit the drained root to execute the requeued
	// tasks — otherwise they are silently stranded and Visits under-counts.
	m := DefaultMachine(1)
	m.ProcsPerNode = 2
	w := DefaultWorkload(40) // static share int(0.4*40/2) = 8 tasks per rank
	base := Simulate(m, w, false)

	fp := []Fault{
		{Rank: 1, AfterTasks: 0, DelaySeconds: 1e5},
		{Rank: 1, AfterTasks: 2, Kill: true},
	}
	res := SimulateOpts(m, w, false, SimOptions{Faults: fp})
	if res.FailedProcs != 1 {
		t.Fatalf("FailedProcs = %d, want the stalled child killed", res.FailedProcs)
	}
	if res.RequeuedTasks == 0 {
		t.Fatal("child died without surrendering its pool")
	}
	if res.Visits != base.Visits {
		t.Errorf("%d visits completed, fault-free %d — requeued tasks stranded",
			res.Visits, base.Visits)
	}
}

func TestStealReducesImbalanceUnderFaults(t *testing.T) {
	// Same fault plan as the recovery test; the steal variant must complete
	// the identical useful work with visibly less load imbalance, because
	// idle processes pull from loaded pools instead of parking until a
	// requeue cascades to their subtree.
	m := DefaultMachine(2) // 34 processes
	w := DefaultWorkload(200)
	base := Simulate(m, w, false)
	fp := []Fault{
		{Rank: 3, AfterTasks: 1, Kill: true},
		{Rank: 17, AfterTasks: 0, Kill: true},
		{Rank: 0, AfterTasks: 2, Kill: true},
	}
	static := SimulateOpts(m, w, false, SimOptions{Faults: fp})
	steal := SimulateOpts(m, w, false, SimOptions{Faults: fp, Steal: true})

	if steal.Visits != base.Visits {
		t.Fatalf("steal run completed %d visits, fault-free %d", steal.Visits, base.Visits)
	}
	if steal.FailedProcs != static.FailedProcs {
		t.Fatalf("steal changed the fault plan: %d vs %d failures",
			steal.FailedProcs, static.FailedProcs)
	}
	if steal.StolenTasks == 0 {
		t.Error("steal-enabled run stole nothing")
	}
	if static.StolenTasks != 0 {
		t.Errorf("static run recorded %d steals", static.StolenTasks)
	}
	if steal.Components.LoadImbalance >= static.Components.LoadImbalance {
		t.Errorf("stealing did not reduce load imbalance: %.2f (steal) vs %.2f (static)",
			steal.Components.LoadImbalance, static.Components.LoadImbalance)
	}
	if steal.Makespan > static.Makespan {
		t.Errorf("stealing lengthened the run: %.1f vs %.1f", steal.Makespan, static.Makespan)
	}
}

func TestStealRecoversOnePercentKillPlan(t *testing.T) {
	// The §VII-style 1%-killed-procs plan at 18 nodes: ranks 0-2 (exactly
	// 1% of the 306 processes, and the top of the Dtree) die at the start,
	// so their distribution pools requeue onto a handful of inheritors.
	// Static partitions leave those inheritors as stragglers; stealing must
	// spread the pools back out and land the makespan near fault-free.
	m := DefaultMachine(18) // 306 processes
	w := DefaultWorkload(1224)
	ff := Simulate(m, w, true)
	fp := []Fault{
		{Rank: 0, AfterTasks: 0, Kill: true},
		{Rank: 1, AfterTasks: 0, Kill: true},
		{Rank: 2, AfterTasks: 0, Kill: true},
	}
	static := SimulateOpts(m, w, true, SimOptions{Faults: fp})
	steal := SimulateOpts(m, w, true, SimOptions{Faults: fp, Steal: true})

	if steal.Visits != ff.Visits || static.Visits != ff.Visits {
		t.Fatalf("useful visits drifted: fault-free %d, static %d, steal %d",
			ff.Visits, static.Visits, steal.Visits)
	}
	if steal.StolenTasks == 0 {
		t.Fatal("steal-enabled run stole nothing")
	}
	if steal.Components.LoadImbalance >= static.Components.LoadImbalance {
		t.Errorf("stealing did not reduce load imbalance: %.2f (steal) vs %.2f (static)",
			steal.Components.LoadImbalance, static.Components.LoadImbalance)
	}
	// The steal run must recover most of the fault penalty: closer to the
	// fault-free makespan than to the static-faulted one.
	if steal.Makespan-ff.Makespan > (static.Makespan-ff.Makespan)/2 {
		t.Errorf("stealing recovered too little: fault-free %.1f, steal %.1f, static %.1f",
			ff.Makespan, steal.Makespan, static.Makespan)
	}
}

func TestStealOffMatchesSimulate(t *testing.T) {
	// SimOptions' zero value must be the exact static baseline.
	m := DefaultMachine(2)
	w := DefaultWorkload(120)
	a := Simulate(m, w, false)
	b := SimulateOpts(m, w, false, SimOptions{})
	if a.Makespan != b.Makespan || a.Visits != b.Visits || a.Components != b.Components {
		t.Errorf("zero-value SimOptions changed the simulation: %+v vs %+v",
			a.Components, b.Components)
	}
}
