package core

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// errKilled is the death a test worker's OnTask injects: the worker drops
// its connection with the task in hand, as a SIGKILLed process would, and
// the coordinator requeues its rank's work.
var errKilled = errors.New("test: worker killed")

// killAfter is the OnTask of a worker that dies on being handed a task once
// it has completed n.
func killAfter(n int) func(task, completed int) error {
	return func(_, completed int) error {
		if completed >= n {
			return errKilled
		}
		return nil
	}
}

// runFleet runs the survey over loopback with goroutine RunWorkers as its
// ranks, one per entry of fleet, which is that worker's OnTask (nil: the
// worker runs fault-free). cfg.Processes becomes len(fleet), and the workers
// regenerate the partition from targetWork. Admission order fixes the Dtree
// root: worker 0 dials alone and starts the others from its first task
// assignment, so it is rank 0 and the rest race for the ranks after it. A
// worker may end with the error its own OnTask returned; in an aborted run
// it may also end with cnet.ErrAborted, or, if it was never handed a task,
// with whatever dialing a closed coordinator gives. Any other worker error
// fails the test. Every worker has exited when runFleet returns.
func runFleet(t *testing.T, sv *survey.Survey, catalog []model.CatalogEntry, tasks []partition.Task,
	targetWork float64, cfg Config, opts RunOptions, fleet []func(task, completed int) error) (*RunResult, error) {

	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg.Processes = len(fleet)
	opts.Transport = &cnet.Transport{Listener: l, TargetWork: targetWork}
	var wg sync.WaitGroup
	handed := make([]bool, len(fleet))   // whether each worker was handed a task
	stopped := make([]error, len(fleet)) // what each worker's OnTask ended it with
	exited := make([]error, len(fleet))  // what each RunWorker returned
	var startOthers sync.Once
	var start func(i int)
	start = func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exited[i] = RunWorker(l.Addr().String(), sv, catalog, WorkerOptions{
				Threads: cfg.Threads, PatchThreads: cfg.PatchThreads,
				OnTask: func(task, completed int) error {
					handed[i] = true
					if i == 0 {
						startOthers.Do(func() {
							for j := 1; j < len(fleet); j++ {
								start(j)
							}
						})
					}
					if fleet[i] == nil {
						return nil
					}
					stopped[i] = fleet[i](task, completed)
					return stopped[i]
				},
			})
		}()
	}
	start(0)
	res, err := RunWithOptions(sv, catalog, tasks, cfg, opts)
	wg.Wait()
	aborted := errors.Is(err, ErrAborted)
	for i, werr := range exited {
		switch {
		case werr == nil || werr == stopped[i]:
		case aborted && (errors.Is(werr, cnet.ErrAborted) || !handed[i]):
			// An abort at an early commit can end the run before the whole
			// fleet has dialed.
		default:
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	return res, err
}

// withinDeadline runs one run under a test-local deadline — a missed
// wake-up in a blocking pull is a deadlock, not a slowdown. The deadline
// sits well above a run's compute time: under -race on a 2-core box the
// survivor of five kills takes 7–9 s alone.
func withinDeadline(t *testing.T, run func() (*RunResult, error)) (*RunResult, error) {
	t.Helper()
	type outcome struct {
		res *RunResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := run()
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("run did not return within 30s: a blocked rank missed its wake-up\n%s",
			buf[:runtime.Stack(buf, true)])
		return nil, nil
	}
}

// runBounded runs a chaos-survey run within the deadline and checks that no
// goroutine outlives it. A nil fleet runs cfg.Processes goroutine ranks in
// process; otherwise runFleet's loopback workers are the ranks, and the
// check covers them, their heartbeats and the coordinator's connection
// handlers too. cfg.PatchThreads must be 1 (blockedConfig), or the fits'
// persistent evaluation crews would count as leaks.
func runBounded(t *testing.T, sv *survey.Survey, catalog []model.CatalogEntry,
	tasks []partition.Task, cfg Config, opts RunOptions, fleet []func(task, completed int) error) (*RunResult, error) {

	t.Helper()
	before := runtime.NumGoroutine()
	res, err := withinDeadline(t, func() (*RunResult, error) {
		if fleet == nil {
			return RunWithOptions(sv, catalog, tasks, cfg, opts)
		}
		return runFleet(t, sv, catalog, tasks, chaosTargetWork, cfg, opts, fleet)
	})
	// A rank has passed wg.Done when RunWithOptions returns but may not have
	// been descheduled for the last time yet; give the exits a moment.
	for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the run, %d after: a rank outlived RunWithOptions", before, after)
	}
	return res, err
}

// TestBlockedRanksWakeOnCompletion: with more ranks than runnable tasks the
// idle ranks block through both stages; the stage advance and the final
// commit must wake them, and the catalog must not care who was idle.
func TestBlockedRanksWakeOnCompletion(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	base := run(t, sv, noisy, tasks, chaosConfig(1, 1))
	res, err := runBounded(t, sv, noisy, tasks, blockedConfig(), RunOptions{}, nil)
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
	}, nil)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("abort returned %v, want ErrAborted", err)
	}
}

// TestBlockedRanksStrandWhenAllKilled: every worker is doomed, and there are
// fewer tasks than ranks, so the late casualties die on tasks requeued by the
// early ones — each having sat blocked behind an earlier kill. The last
// death must strand the run loudly, not leave anyone waiting.
func TestBlockedRanksStrandWhenAllKilled(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	fleet := make([]func(task, completed int) error, blockedRanks)
	for i := range fleet {
		fleet[i] = killAfter(0)
	}
	res, err := runBounded(t, sv, noisy, tasks, blockedConfig(), RunOptions{}, fleet)
	if err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("all-killed run returned %v, want the stranded diagnostic", err)
	}
	if res.FailedRanks != blockedRanks || res.TasksProcessed != 0 {
		t.Errorf("FailedRanks=%d TasksProcessed=%d, want every rank dead and nothing committed",
			res.FailedRanks, res.TasksProcessed)
	}
}

// TestBlockedRankPicksUpKilledRanksTask: every worker but the last is
// doomed. Whatever the doomed workers draw is lost and requeued, and the
// survivor — blocked whenever all runnable tasks ride on doomed ranks — must
// wake for each requeue and finish the run alone, byte-identically.
func TestBlockedRankPicksUpKilledRanksTask(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	base := run(t, sv, noisy, tasks, chaosConfig(1, 1))
	fleet := make([]func(task, completed int) error, blockedRanks)
	for i := range fleet[:blockedRanks-1] {
		fleet[i] = killAfter(0)
	}
	// A kill fires only when its worker draws a task; retry the (improbable)
	// schedule where the survivor drains the run before any doomed worker
	// runs.
	for attempt := 1; ; attempt++ {
		res, err := runBounded(t, sv, noisy, tasks, blockedConfig(), RunOptions{}, fleet)
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

// TestWireRunReportsStolenTasks: a rank that runs dry while another rank
// still holds pooled tasks steals them, and the run must say so. Over two
// loopback RunWorkers, rank 1 is a straggler, so rank 0 drains its own
// allocation and the root's dynamic pool first and then finds rank 1's
// pooled task the only work left — reachable only by stealing (rank 1 is not
// on the root's refill chain). A wire pull is the backend's Next, so the
// steal happens inside it — no second request — and the run's one epilogue
// must count it, with the catalog still matching the in-process bytes.
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
	for attempt := 1; ; attempt++ {
		// The first worker is rank 0; the straggler, started from its first
		// task, is rank 1 and stalls with its first task in hand and the
		// rest of its allocation pooled.
		res, err := runFleet(t, sv, noisy, tasks, targetWork, cfg, RunOptions{},
			[]func(task, completed int) error{nil, func(_, completed int) error {
				if completed == 0 {
					time.Sleep(stall)
				}
				return nil
			}})
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
