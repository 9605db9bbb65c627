package core

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"celeste/internal/dtree"
	"celeste/internal/geom"
	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// blockedRanks is the rank count of the blocked-rank tests: more than the
// chaos partition's runnable tasks per stage (at most 4), so in every stage
// some rank finds the pool dry with tasks still in flight elsewhere and
// blocks in its pull.
const blockedRanks = 6

// blockedConfig pins PatchThreads to 1 so no fit spawns a persistent
// evaluation crew: every goroutine a run starts is then either a rank or
// joined inside Process, and the goroutine count is checkable.
func blockedConfig() Config {
	cfg := chaosConfig(1, blockedRanks)
	cfg.PatchThreads = 1
	return cfg
}

// runBounded runs RunWithOptions under a test-local deadline — a missed
// wake-up in the blocking pull is a deadlock, not a slowdown — and checks
// that no rank goroutine outlives the call. The deadline sits well above a
// run's compute time: under -race on a 2-core box the survivor of five kills
// takes 7–9 s alone.
func runBounded(t *testing.T, sv *survey.Survey, catalog []model.CatalogEntry,
	tasks []partition.Task, cfg Config, opts RunOptions) (*RunResult, error) {

	t.Helper()
	before := runtime.NumGoroutine()
	type outcome struct {
		res *RunResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := RunWithOptions(sv, catalog, tasks, cfg, opts)
		ch <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("run did not return within 30s: a blocked rank missed its wake-up\n%s",
			buf[:runtime.Stack(buf, true)])
	}
	// A rank has passed wg.Done when RunWithOptions returns but may not have
	// been descheduled for the last time yet; give the exits a moment.
	for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the run, %d after: a rank outlived RunWithOptions", before, after)
	}
	return o.res, o.err
}

// TestBlockedRanksWakeOnCompletion: with more ranks than runnable tasks the
// idle ranks block through both stages; the stage advance and the final
// commit must wake them, and the catalog must not care who was idle.
func TestBlockedRanksWakeOnCompletion(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	base := run(t, sv, noisy, tasks, chaosConfig(1, 1))
	res, err := runBounded(t, sv, noisy, tasks, blockedConfig(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	catalogsEqual(t, base.Catalog, res.Catalog, "blocked ranks, fault-free")
	if res.TasksProcessed != len(tasks) {
		t.Errorf("processed %d of %d tasks", res.TasksProcessed, len(tasks))
	}
}

// TestBlockedRanksWakeOnAbort: a checkpoint hook error aborts the run while
// ranks sit blocked; they must be told, and the run must return ErrAborted.
func TestBlockedRanksWakeOnAbort(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	_, err := runBounded(t, sv, noisy, tasks, blockedConfig(), RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint:    func(*Checkpoint) error { return errors.New("chaos: injected abort") },
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("abort returned %v, want ErrAborted", err)
	}
}

// TestBlockedRanksStrandWhenAllKilled: every rank is doomed, and there are
// fewer tasks than ranks, so the late casualties die on tasks requeued by the
// early ones — each having sat blocked behind an earlier kill. The last
// death must strand the run loudly, not leave anyone waiting.
func TestBlockedRanksStrandWhenAllKilled(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	fp := &dtree.FaultPlan{}
	for rank := 0; rank < blockedRanks; rank++ {
		fp.Faults = append(fp.Faults, dtree.Fault{Rank: rank, AfterTasks: 0, Kill: true})
	}
	res, err := runBounded(t, sv, noisy, tasks, blockedConfig(), RunOptions{faults: fp})
	if err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("all-killed run returned %v, want the stranded diagnostic", err)
	}
	if res.FailedRanks != blockedRanks || res.TasksProcessed != 0 {
		t.Errorf("FailedRanks=%d TasksProcessed=%d, want every rank dead and nothing committed",
			res.FailedRanks, res.TasksProcessed)
	}
}

// TestBlockedRankPicksUpKilledRanksTask: every rank but the last is doomed.
// Whatever the doomed ranks draw is lost and requeued, and the survivor —
// blocked whenever all runnable tasks ride on doomed ranks — must wake for
// each requeue and finish the run alone, byte-identically.
func TestBlockedRankPicksUpKilledRanksTask(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	base := run(t, sv, noisy, tasks, chaosConfig(1, 1))
	fp := &dtree.FaultPlan{}
	for rank := 0; rank < blockedRanks-1; rank++ {
		fp.Faults = append(fp.Faults, dtree.Fault{Rank: rank, AfterTasks: 0, Kill: true})
	}
	// A kill fires only when its rank draws a task; retry the (improbable)
	// schedule where the survivor drains the run before any doomed rank runs.
	for attempt := 1; ; attempt++ {
		res, err := runBounded(t, sv, noisy, tasks, blockedConfig(), RunOptions{faults: fp})
		if err != nil {
			t.Fatal(err)
		}
		catalogsEqual(t, base.Catalog, res.Catalog, "survivor of five kills")
		if res.FailedRanks > 0 && res.RequeuedTasks > 0 {
			return
		}
		if attempt >= 5 {
			t.Fatalf("no kill landed in %d attempts", attempt)
		}
	}
}

// TestInProcessRunReportsStolenTasks: an in-process rank that runs dry while
// another rank still holds pooled tasks steals them, and the run must say so.
// Before the runtimes shared one accounting epilogue the goroutine driver
// folded the scheduler's requeue count into the result and dropped its steal
// count, so StolenTasks was always 0 in-process.
func TestInProcessRunReportsStolenTasks(t *testing.T) {
	sv, noisy, _ := chaosSetup(t)
	// Ten single-source stage-0 tasks: over 2 ranks the static first
	// allocation is then 2 deep. Rank 1 is a straggler, so rank 0 drains its
	// own allocation and the root's dynamic pool first and then finds rank 1's
	// pooled task the only work left — reachable only by stealing (rank 1 is
	// not on the root's refill chain).
	const nTasks = 10
	if len(noisy) < nTasks {
		t.Skipf("only %d sources drawn", len(noisy))
	}
	px := sv.Config.PixScale
	tasks := make([]partition.Task, nTasks)
	for i := range tasks {
		p := noisy[i].Pos
		tasks[i] = partition.Task{ID: i, Stage: 0, Sources: []int{i},
			Box: geom.NewBox(p.RA-4*px, p.Dec-4*px, p.RA+4*px, p.Dec+4*px)}
	}
	cfg := Config{Threads: 1, PatchThreads: 1, Processes: 1, Rounds: 1, Seed: 3,
		Fit: vi.Options{MaxIter: 2, GradTol: 1e-2}}
	t0 := time.Now()
	base := run(t, sv, noisy, tasks, cfg)
	// The straggler stalls, task in hand, for twice what the whole run takes
	// one rank — sized from this binary's own speed, so the order of events
	// holds under the race detector too.
	stall := 2*time.Since(t0) + 50*time.Millisecond
	fp := &dtree.FaultPlan{Faults: []dtree.Fault{{Rank: 1, AfterTasks: 0, DelaySeconds: stall.Seconds()}}}
	cfg.Processes = 2
	for attempt := 1; ; attempt++ {
		res, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{faults: fp})
		if err != nil {
			t.Fatal(err)
		}
		catalogsEqual(t, base.Catalog, res.Catalog, "run with a steal")
		if res.StolenTasks > 0 {
			return
		}
		if attempt >= 3 {
			t.Fatalf("StolenTasks = 0 in %d runs where rank 0 idles beside rank 1's pooled task", attempt)
		}
	}
}

// TestWireRunReportsStolenTasks is the same shape on the other link: two
// worker processes' worth of RunWorker over a loopback Transport. A wire pull
// is the backend's Next, so the steal happens inside it — no second request —
// and the run must count it and still match the in-process bytes.
func TestWireRunReportsStolenTasks(t *testing.T) {
	// Workers regenerate the partition, so the task list cannot be hand-made:
	// a denser field at a tiny TargetWork yields 14 stage-0 tasks, a static
	// first allocation 2 deep over 2 ranks.
	scfg := survey.DefaultConfig(13)
	scfg.Region = geom.NewBox(0, 0, 0.02, 0.02)
	scfg.DeepRegion, scfg.DeepRuns, scfg.Runs = geom.Box{}, 0, 1
	scfg.FieldW, scfg.FieldH = 96, 96
	scfg.SourceDensity = 40000
	sv := survey.Generate(scfg)
	noisy := sv.NoisyCatalog(5)
	const targetWork = 1
	tasks := partition.GenerateTwoStage(noisy, sv.Config.Region, partition.Options{TargetWork: targetWork})
	stage0 := 0
	for _, tk := range tasks {
		if tk.Stage == 0 {
			stage0++
		}
	}
	if stage0 < 10 {
		t.Skipf("only %d stage-0 tasks: rank 1's first allocation is not 2 deep", stage0)
	}
	cfg := Config{Threads: 1, PatchThreads: 1, Processes: 1, Rounds: 1, Seed: 3,
		Fit: vi.Options{MaxIter: 2, GradTol: 1e-2}}
	t0 := time.Now()
	base := run(t, sv, noisy, tasks, cfg)
	stall := 2*time.Since(t0) + 50*time.Millisecond
	cfg.Processes = 2
	for attempt := 1; ; attempt++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		worker := func(onTask func(task, completed int)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RunWorker(l.Addr().String(), sv, noisy, WorkerOptions{
					Threads: 1, PatchThreads: 1, OnTask: onTask,
				}); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
		// The first worker holds rank 0 by the time it is handed a task; the
		// straggler, started then, is rank 1 and stalls with its first task in
		// hand and the rest of its allocation pooled.
		var straggler sync.Once
		worker(func(int, int) {
			straggler.Do(func() {
				worker(func(_, completed int) {
					if completed == 0 {
						time.Sleep(stall)
					}
				})
			})
		})
		res, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{
			Transport: &cnet.Transport{Listener: l, TargetWork: targetWork},
		})
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		catalogsEqual(t, base.Catalog, res.Catalog, "wire run with a steal")
		if res.StolenTasks > 0 || t.Failed() {
			return
		}
		if attempt >= 3 {
			t.Fatalf("StolenTasks = 0 in %d wire runs where rank 0 idles beside rank 1's pooled task", attempt)
		}
	}
}
