package core

import (
	"errors"
	"fmt"
	"testing"

	"celeste/internal/dtree"
	"celeste/internal/model"
	"celeste/internal/partition"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// chaosSetup builds the small fixed survey and two-stage partition the
// chaos tests share. TargetWork is set low so the partition yields several
// tasks per stage — fault and checkpoint coverage needs task granularity.
func chaosSetup(t *testing.T) (*survey.Survey, []model.CatalogEntry, []partition.Task) {
	t.Helper()
	sv := smallSurvey(13)
	noisy := sv.NoisyCatalog(5)
	if len(noisy) < 4 {
		t.Skip("too few sources drawn for a multi-task partition")
	}
	tasks := partition.GenerateTwoStage(noisy, sv.Config.Region, partition.Options{
		TargetWork: 1e5,
	})
	stage0 := 0
	for _, tk := range tasks {
		if tk.Stage == 0 {
			stage0++
		}
	}
	if stage0 < 3 {
		t.Skipf("partition yielded only %d stage-0 tasks", stage0)
	}
	return sv, noisy, tasks
}

// chaosConfig caps every fit at 4 Newton iterations: the chaos tests check
// scheduling and recovery, not fit quality, and runBounded's deadlock
// deadline must stay far above a run's compute time under -race. Capped fits
// run on the full tier at every iteration, so 4 iterations cost about what 8
// did when most steps ran on the cheaper gradient tier.
func chaosConfig(threads, procs int) Config {
	return Config{Threads: threads, Processes: procs, Rounds: 1, Seed: 3,
		Fit: vi.Options{MaxIter: 4, GradTol: 1e-3}}
}

// run is a plain in-process run: no hooks, faults or resume state, so it
// cannot fail.
func run(t *testing.T, sv *survey.Survey, catalog []model.CatalogEntry, tasks []partition.Task, cfg Config) *RunResult {
	t.Helper()
	res, err := RunWithOptions(sv, catalog, tasks, cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func catalogsEqual(t *testing.T, want, got []model.CatalogEntry, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: catalog entry %d differs:\n want %+v\n  got %+v", label, i, want[i], got[i])
		}
	}
}

// TestRunDeterministicAcrossProcsAndThreads is the foundation the
// checkpoint/resume guarantee rests on: tasks read their inputs from the
// frozen stage-start array, so the catalog is a pure function of the run
// inputs — not of scheduling order, process count, or thread count.
func TestRunDeterministicAcrossProcsAndThreads(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	base := run(t, sv, noisy, tasks, chaosConfig(1, 1))
	combos := [][2]int{{4, 2}, {2, 3}}
	if testing.Short() {
		combos = combos[:1]
	}
	for _, c := range combos {
		res := run(t, sv, noisy, tasks, chaosConfig(c[0], c[1]))
		catalogsEqual(t, base.Catalog, res.Catalog, fmt.Sprintf("threads=%d procs=%d", c[0], c[1]))
	}
}

// TestKilledRanksRecoverIdentically kills ranks mid-task and checks the
// survivors re-execute the requeued work to the exact same catalog — the
// paper's idempotent-task recovery story (Section IV-B), observed for real.
func TestKilledRanksRecoverIdentically(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(2, 3)
	base := run(t, sv, noisy, tasks, cfg)

	plans := []dtree.FaultPlan{
		{Faults: []dtree.Fault{{Rank: 1, AfterTasks: 0, Kill: true}}},
		{Faults: []dtree.Fault{
			{Rank: 0, AfterTasks: 1, Kill: true}, // the root dies too
			{Rank: 2, AfterTasks: 0, Kill: true},
		}},
	}
	if testing.Short() {
		plans = plans[:1]
	}
	for pi, fp := range plans {
		fp := fp
		// A kill fires only when its rank draws a task; under heavy machine
		// load the surviving ranks can drain the whole (now fast) run before
		// the doomed rank's goroutine is first scheduled, in which case the
		// run legitimately completes fault-free. Retry the scheduling race;
		// every attempt that does land the kills must recover identically.
		for attempt := 1; ; attempt++ {
			res, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{Faults: &fp})
			if err != nil {
				t.Fatalf("plan %d: %v", pi, err)
			}
			catalogsEqual(t, base.Catalog, res.Catalog, fmt.Sprintf("fault plan %d", pi))
			if res.FailedRanks == len(fp.Faults) && res.RequeuedTasks > 0 {
				break
			}
			if attempt >= 5 {
				t.Fatalf("plan %d: kills never landed in %d attempts (FailedRanks=%d, RequeuedTasks=%d)",
					pi, attempt, res.FailedRanks, res.RequeuedTasks)
			}
			t.Logf("plan %d attempt %d: a doomed rank drew no work; retrying", pi, attempt)
		}
	}
}

// TestAllRanksDeadIsAnError: killing every rank strands work, and the run
// must say so rather than return a silently incomplete catalog.
func TestAllRanksDeadIsAnError(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(1, 2)
	fp := &dtree.FaultPlan{Faults: []dtree.Fault{
		{Rank: 0, AfterTasks: 0, Kill: true},
		{Rank: 1, AfterTasks: 0, Kill: true},
	}}
	_, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{Faults: fp})
	if err == nil {
		t.Fatal("run with every rank killed reported success")
	}
}

// TestDelayedRankStillCompletes: a straggler slows the run but must not
// change the result.
func TestDelayedRankStillCompletes(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(2, 2)
	base := run(t, sv, noisy, tasks, cfg)
	fp := &dtree.FaultPlan{Faults: []dtree.Fault{
		{Rank: 1, AfterTasks: 0, DelaySeconds: 0.002},
	}}
	res, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	catalogsEqual(t, base.Catalog, res.Catalog, "delayed rank")
}

// TestCheckpointAbortResumeEveryBoundary checkpoints and aborts at every
// task boundary, resumes each checkpoint, and requires the final catalog to
// be byte-identical to the uninterrupted run — including resumes at a
// different {threads, procs} than the checkpoint was taken at.
func TestCheckpointAbortResumeEveryBoundary(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(2, 2)
	base := run(t, sv, noisy, tasks, cfg)
	total := base.TasksProcessed

	boundaries := make([]int, 0, total)
	for k := 1; k < total; k++ {
		boundaries = append(boundaries, k)
	}
	if testing.Short() && len(boundaries) > 3 {
		// First, middle, and last boundary still cross both stages.
		boundaries = []int{1, total / 2, total - 1}
	}

	for _, k := range boundaries {
		var captured *Checkpoint
		n := 0
		partial, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{
			CheckpointEvery: 1,
			OnCheckpoint: func(ck *Checkpoint) error {
				n++
				if n == k {
					captured = ck
					return errors.New("chaos: injected abort")
				}
				return nil
			},
		})
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("boundary %d: abort returned %v, want ErrAborted", k, err)
		}
		if captured == nil {
			t.Fatalf("boundary %d: no checkpoint captured", k)
		}
		// The partial result carries the committed work (ranks mid-commit
		// when the abort landed may push it past k).
		if partial.TasksProcessed < k {
			t.Errorf("boundary %d: partial result reports %d tasks, want >= %d",
				k, partial.TasksProcessed, k)
		}
		if got := countTrue(captured.Done); got != k {
			t.Fatalf("boundary %d: checkpoint has %d tasks done", k, got)
		}

		// Resume at the same shape, and at a different one.
		resumeCfgs := []Config{cfg, chaosConfig(1, 3)}
		if testing.Short() {
			resumeCfgs = resumeCfgs[:1]
		}
		for _, rc := range resumeCfgs {
			res, err := RunWithOptions(sv, noisy, tasks, rc, RunOptions{Resume: captured})
			if err != nil {
				t.Fatalf("boundary %d resume: %v", k, err)
			}
			catalogsEqual(t, base.Catalog, res.Catalog,
				fmt.Sprintf("resume from boundary %d at procs=%d", k, rc.Processes))
			if res.TasksProcessed != total {
				t.Errorf("boundary %d: resumed run reports %d tasks processed, want cumulative %d",
					k, res.TasksProcessed, total)
			}
		}
	}
}

// TestResumeRejectsForeignCheckpoint: a checkpoint from different run inputs
// must be refused, not silently applied.
func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(1, 2)
	var captured *Checkpoint
	_, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			captured = ck
			return errors.New("stop")
		},
	})
	if !errors.Is(err, ErrAborted) || captured == nil {
		t.Fatalf("no checkpoint captured: %v", err)
	}
	otherCfg := cfg
	otherCfg.Seed = cfg.Seed + 1 // different run identity
	if _, err := RunWithOptions(sv, noisy, tasks, otherCfg, RunOptions{Resume: captured}); err == nil {
		t.Fatal("resume accepted a checkpoint from a different run configuration")
	}
}

// TestResumeRejectsPreviousNumericsRevision: a checkpoint hashed by a build
// at the previous numerics revision — same inputs, catalog bytes that differ
// by design — must be refused, not resumed into a mixed catalog.
func TestResumeRejectsPreviousNumericsRevision(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(1, 2)
	var captured *Checkpoint
	_, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			captured = ck
			return errors.New("stop")
		},
	})
	if !errors.Is(err, ErrAborted) || captured == nil {
		t.Fatalf("no checkpoint captured: %v", err)
	}
	if got := runHash(sv, noisy, tasks, cfg, numericsRevision); got != captured.Hash {
		t.Fatalf("checkpoint hash %016x, runHash at the current revision %016x", captured.Hash, got)
	}
	captured.Hash = runHash(sv, noisy, tasks, cfg, numericsRevision-1)
	if _, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{Resume: captured}); err == nil {
		t.Fatal("resume accepted a checkpoint hashed at the previous numerics revision")
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
