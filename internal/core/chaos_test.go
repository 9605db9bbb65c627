package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"celeste/internal/model"
	"celeste/internal/partition"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// chaosTargetWork is the chaos partition's TargetWork, set low so the
// partition yields several tasks per stage — fault and checkpoint coverage
// needs task granularity. Loopback workers regenerate the partition from it.
const chaosTargetWork = 1e5

// chaosSetup builds the small fixed survey and two-stage partition the
// chaos tests share.
func chaosSetup(t testing.TB) (*survey.Survey, []model.CatalogEntry, []partition.Task) {
	t.Helper()
	sv := smallSurvey(13)
	noisy := sv.NoisyCatalog(5)
	if len(noisy) < 4 {
		t.Skip("too few sources drawn for a multi-task partition")
	}
	tasks := partition.GenerateTwoStage(noisy, sv.Config.Region, partition.Options{
		TargetWork: chaosTargetWork,
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

// run is a plain in-process run: no hooks or resume state, so it cannot
// fail.
func run(t testing.TB, sv *survey.Survey, catalog []model.CatalogEntry, tasks []partition.Task, cfg Config) *RunResult {
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

// TestKilledRanksRecoverIdentically kills workers mid-task and checks the
// survivors re-execute the requeued work to the exact same catalog — the
// paper's idempotent-task recovery story (Section IV-B), observed for real
// over loopback connections.
func TestKilledRanksRecoverIdentically(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(2, 3)
	cfg.PatchThreads = 1
	base := run(t, sv, noisy, tasks, cfg)

	// Worker 0 is the Dtree root; the others race for ranks 1 and 2.
	plans := [][]func(task, completed int) error{
		{nil, killAfter(0), nil},
		// The root, which holds the dynamic pool, dies on its first task.
		{killAfter(0), nil, nil},
		{killAfter(1), killAfter(0), nil}, // the root dies too
	}
	if testing.Short() {
		plans = plans[:2]
	}
	for pi, fleet := range plans {
		kills := 0
		for _, f := range fleet {
			if f != nil {
				kills++
			}
		}
		// A kill fires only when its worker draws a task; under heavy machine
		// load the surviving workers can drain the whole (now fast) run
		// before the doomed one is first handed work, in which case the run
		// legitimately completes fault-free. Retry the scheduling race;
		// every attempt that does land the kills must recover identically.
		for attempt := 1; ; attempt++ {
			res, err := runBounded(t, sv, noisy, tasks, cfg, RunOptions{}, fleet)
			if err != nil {
				t.Fatalf("plan %d: %v", pi, err)
			}
			catalogsEqual(t, base.Catalog, res.Catalog, fmt.Sprintf("fault plan %d", pi))
			if res.FailedRanks == kills && res.RequeuedTasks > 0 {
				break
			}
			if attempt >= 5 {
				t.Fatalf("plan %d: kills never landed in %d attempts (FailedRanks=%d, RequeuedTasks=%d)",
					pi, attempt, res.FailedRanks, res.RequeuedTasks)
			}
			t.Logf("plan %d attempt %d: a doomed worker drew no work; retrying", pi, attempt)
		}
	}
}

// TestAllRanksDeadIsAnError: killing every worker strands work, and the run
// must say so rather than return a silently incomplete catalog.
func TestAllRanksDeadIsAnError(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(1, 2)
	cfg.PatchThreads = 1
	fleet := []func(task, completed int) error{killAfter(0), killAfter(0)}
	if _, err := runBounded(t, sv, noisy, tasks, cfg, RunOptions{}, fleet); err == nil {
		t.Fatal("run with every rank killed reported success")
	}
}

// TestDelayedRankStillCompletes: a straggler slows the run but must not
// change the result.
func TestDelayedRankStillCompletes(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(2, 2)
	cfg.PatchThreads = 1
	base := run(t, sv, noisy, tasks, cfg)
	fleet := []func(task, completed int) error{nil, func(int, int) error {
		time.Sleep(2 * time.Millisecond) // before every task, with it in hand
		return nil
	}}
	res, err := runBounded(t, sv, noisy, tasks, cfg, RunOptions{}, fleet)
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

// FuzzRunByteIdentity is the randomized whole-run differential. From the
// fuzz input it draws the link (in process at 1–4 ranks, or 1–3 goroutine
// workers over loopback), Threads and PatchThreads (1–2 each), a kill
// schedule that dooms every worker but one to die after 0, 1 or 2 tasks,
// and an optional checkpoint-abort at commit j, resumed in process at
// another shape. Faults enter only the way they do in production, through a
// worker's connection (OnTask). The run, or its resume, must end without
// error in a catalog byte-identical to the fault-free in-process reference.
func FuzzRunByteIdentity(f *testing.F) {
	sv, noisy, tasks := chaosSetup(f)
	base := run(f, sv, noisy, tasks, chaosConfig(1, 1))
	// link, shape, kills, abort: in process at 3 ranks aborted at commit 2;
	// 3 workers, the root and one other killed on their first task; 2
	// workers, the second killed after 1 task, aborted at commit 6; 1
	// worker at Threads and PatchThreads 2.
	f.Add(uint8(4), uint8(1), uint16(0), uint8(2))
	f.Add(uint8(5), uint8(0), uint16(2), uint8(0))
	f.Add(uint8(3), uint8(2), uint16(6), uint8(6))
	f.Add(uint8(1), uint8(3), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, link, shape uint8, kills uint16, abort uint8) {
		wire := link&1 == 1
		n := 1 + int(link>>1)%4
		if wire {
			n = 1 + int(link>>1)%3
		}
		cfg := chaosConfig(1+int(shape&1), n)
		cfg.PatchThreads = 1 + int(shape>>1&1)
		var fleet []func(task, completed int) error
		if wire {
			fleet = make([]func(task, completed int) error, n)
			survivor, sched := int(kills)%n, int(kills)/n
			for i := range fleet {
				if i != survivor {
					fleet[i] = killAfter(sched % 3)
				}
				sched /= 3
			}
		}
		var opts RunOptions
		var captured *Checkpoint
		if abort > 0 {
			j := 1 + int(abort-1)%(len(tasks)-1)
			commits := 0
			opts.CheckpointEvery = 1
			opts.OnCheckpoint = func(ck *Checkpoint) error {
				if commits++; commits == j {
					captured = ck
					return errors.New("fuzz: injected abort")
				}
				return nil
			}
		}
		label := fmt.Sprintf("wire=%v ranks=%d threads=%d patch=%d kills=%d abort=%d",
			wire, n, cfg.Threads, cfg.PatchThreads, kills, abort)
		res, err := withinDeadline(t, func() (*RunResult, error) {
			if wire {
				return runFleet(t, sv, noisy, tasks, chaosTargetWork, cfg, opts, fleet)
			}
			return RunWithOptions(sv, noisy, tasks, cfg, opts)
		})
		if abort > 0 {
			if !errors.Is(err, ErrAborted) || captured == nil {
				t.Fatalf("%s: abort returned %v, want ErrAborted and a checkpoint", label, err)
			}
			rc := chaosConfig(3-cfg.Threads, 1+n%4)
			rc.PatchThreads = 3 - cfg.PatchThreads
			label += fmt.Sprintf(", resumed at threads=%d ranks=%d", rc.Threads, rc.Processes)
			res, err = withinDeadline(t, func() (*RunResult, error) {
				return RunWithOptions(sv, noisy, tasks, rc, RunOptions{Resume: captured})
			})
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		catalogsEqual(t, base.Catalog, res.Catalog, label)
	})
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
