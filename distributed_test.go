package celeste

// Differential and chaos tests for the TCP runtime: the in-process goroutine
// runtime is the reference implementation, and because every task is a pure
// function of the frozen stage input, its catalog is the byte-exact oracle
// for real multi-process runs. Worker processes are this test binary
// re-executed (TestMain intercepts the env var before any test runs); each
// worker regenerates the survey deterministically and proves it via the
// run-hash handshake before being served a single task.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"celeste/internal/core"
	"celeste/internal/imageio"
	"celeste/internal/vi"
)

const (
	workerAddrEnv   = "CELESTE_TEST_WORKER_ADDR"
	workerKillEnv   = "CELESTE_TEST_KILL_AFTER"
	workerDelayEnv  = "CELESTE_TEST_START_DELAY_MS"
	workerStartEnv  = "CELESTE_TEST_START_FILE"
	workerTouchEnv  = "CELESTE_TEST_TOUCH_FILE"
	workerHoldEnv   = "CELESTE_TEST_HOLD_FILE"
	workerRejoinEnv = "CELESTE_TEST_REJOIN"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(workerAddrEnv); addr != "" {
		runTestWorker(addr)
		return
	}
	if os.Getenv(coordFDEnv) != "" {
		runTestCoordinator()
		return
	}
	os.Exit(m.Run())
}

// runTestWorker is the body of a re-exec'd worker process. It rebuilds the
// shared survey from the same fixed seeds the coordinating test uses and
// joins the run; CELESTE_TEST_KILL_AFTER=k makes it SIGKILL itself upon
// being assigned its (k+1)-th task — with the task in hand, mid-stage, no
// cleanup — to exercise the coordinator's requeue-on-death path for real.
func runTestWorker(addr string) {
	sv, init, _ := distInputs()
	opts := WorkerOptions{
		Threads:        2,
		HeartbeatEvery: 50 * time.Millisecond,
	}
	// The churn tests order the fleet by sentinel files instead of wall-clock
	// sleeps, so the schedule is identical on fast and loaded machines: a
	// worker with a touch file creates it upon its first task assignment —
	// the worker then holds a rank and the task is in hand, so the run is
	// provably mid-flight — a worker with a hold file then keeps that task
	// until the file exists, and a worker with a start file (below) holds its
	// dial until the file exists. The SIGKILL victim touches just before dying.
	kill, touch, hold := -1, os.Getenv(workerTouchEnv), os.Getenv(workerHoldEnv)
	if ks := os.Getenv(workerKillEnv); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker: bad kill spec:", err)
			os.Exit(2)
		}
		kill = k
	}
	if kill >= 0 || touch != "" || hold != "" {
		opts.OnTask = func(task, completed int) error {
			if touch != "" && completed == 0 {
				os.WriteFile(touch, nil, 0o644)
			}
			if hold != "" && completed == 0 {
				waitForFile(hold)
			}
			if kill >= 0 && completed >= kill {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable: SIGKILL cannot be handled
			}
			return nil
		}
	}
	if f := os.Getenv(workerStartEnv); f != "" {
		// Hold the dial until an earlier wave's sentinel appears, so the
		// coordinator is guaranteed to still be serving (the toucher's task
		// is outstanding) when this worker dials.
		waitForFile(f)
	}
	if ds := os.Getenv(workerDelayEnv); ds != "" {
		// The chaos tests hold the healthy workers back so the kill-marked
		// one is guaranteed to reach the scheduler while tasks remain.
		ms, err := strconv.Atoi(ds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker: bad delay spec:", err)
			os.Exit(2)
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
	if rs := os.Getenv(workerRejoinEnv); rs != "" {
		// The failover and chaos tests need workers that outlive coordinator
		// incarnations and severed links: a per-outage re-dial budget on a
		// fast deterministic backoff, bounded by a give-up window so a test
		// gone wrong cannot leave immortal orphans.
		n, err := strconv.Atoi(rs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker: bad rejoin spec:", err)
			os.Exit(2)
		}
		opts.Rejoin = n
		opts.RejoinBackoff = Backoff{
			Base: 20 * time.Millisecond, Max: 250 * time.Millisecond,
			Seed: uint64(os.Getpid()),
		}
		opts.RejoinWindow = 2 * time.Minute
	}
	if err := RunWorker(addr, sv, init, opts); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// waitForFile polls until the sentinel file f exists.
func waitForFile(f string) {
	for {
		if _, err := os.Stat(f); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// distInputs builds the same small fixed-seed survey the kill/resume tests
// use (resumeSurvey), but without a testing.T so the worker process can call
// it too. Both sides must generate identical bytes; the run-hash handshake
// enforces it.
func distInputs() (*Survey, []CatalogEntry, InferConfig) {
	cfg := DefaultSurveyConfig(41)
	cfg.Region = SkyBox{MaxRA: 0.014, MaxDec: 0.014}
	cfg.DeepRegion = SkyBox{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 128, 128
	cfg.SourceDensity = 30000
	sv := GenerateSurvey(cfg)
	init := sv.NoisyCatalog(42)
	icfg := InferConfig{TargetWork: 1e5, Rounds: 1, MaxIter: 8, Seed: 9}
	return sv, init, icfg
}

// spawnTestWorkers re-execs this test binary as n worker processes against
// the coordinator at addr. killAfter maps a worker index to its self-SIGKILL
// trigger (completed-task count); absent workers run to completion.
func spawnTestWorkers(t *testing.T, addr string, n int, killAfter map[int]int) []*exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerAddrEnv+"="+addr)
		if k, ok := killAfter[i]; ok {
			cmd.Env = append(cmd.Env, workerKillEnv+"="+strconv.Itoa(k))
		} else if len(killAfter) > 0 {
			// Healthy workers in a kill test start late, so the victim
			// deterministically draws work before the pool drains (worker
			// startup is slow and noisy under -race).
			cmd.Env = append(cmd.Env, workerDelayEnv+"=1500")
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning worker %d: %v", i, err)
		}
		cmds = append(cmds, cmd)
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	})
	return cmds
}

// testWorkerSpec describes one churn-test worker process.
type testWorkerSpec struct {
	killAfter int    // self-SIGKILL on the (killAfter+1)-th assignment; -1 disables
	startFile string // hold the dial until this file exists
	touchFile string // create this file upon the first task assignment
	holdFile  string // then keep that first task until this file exists
}

// spawnTestWorkerSpecs re-execs this test binary as one worker per spec.
func spawnTestWorkerSpecs(t *testing.T, addr string, specs []testWorkerSpec) []*exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, 0, len(specs))
	for i, sp := range specs {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerAddrEnv+"="+addr)
		if sp.killAfter >= 0 {
			cmd.Env = append(cmd.Env, workerKillEnv+"="+strconv.Itoa(sp.killAfter))
		}
		if sp.startFile != "" {
			cmd.Env = append(cmd.Env, workerStartEnv+"="+sp.startFile)
		}
		if sp.touchFile != "" {
			cmd.Env = append(cmd.Env, workerTouchEnv+"="+sp.touchFile)
		}
		if sp.holdFile != "" {
			cmd.Env = append(cmd.Env, workerHoldEnv+"="+sp.holdFile)
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning worker %d: %v", i, err)
		}
		cmds = append(cmds, cmd)
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
	})
	return cmds
}

// runTCP serves one run over a loopback listener to n real worker processes
// and returns the coordinator's result. Worker deaths are detected by
// connection errors (a SIGKILL closes the socket) or heartbeat silence.
func runTCP(t *testing.T, sv *Survey, init []CatalogEntry, cfg InferConfig,
	workers int, opts InferOptions, killAfter map[int]int) (*InferResult, []*exec.Cmd, error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processes = workers
	opts.Transport = &Transport{
		Listener:     &admitAllListener{Listener: l, left: workers, all: make(chan struct{})},
		DeadAfter:    3 * time.Second,
		ConnectGrace: 60 * time.Second,
	}
	cmds := spawnTestWorkers(t, l.Addr().String(), workers, killAfter)
	res, err := InferWithOptions(sv, init, cfg, opts)
	for _, c := range cmds {
		c.Wait()
	}
	return res, cmds, err
}

// admitAllListener holds the coordinator's Close until the whole spawned
// fleet has been accepted. The runtime hands out work as soon as one worker
// is ready and idle ranks steal the pools of absent ones, so on a loaded
// machine a short run can complete while the last re-exec'd workers are still
// regenerating the survey; their dial would then be refused and they would
// exit 1, which TestDistributedDifferentialByteIdentical reads as a worker
// failure. With every dial admitted first, a latecomer completes its
// handshake and is sent Shutdown(complete) like everyone else — the schedule
// no longer depends on how fast a fit is. The wait is bounded so a worker
// that died before dialing cannot wedge the run.
type admitAllListener struct {
	net.Listener
	mu   sync.Mutex
	left int
	all  chan struct{} // closed once `left` connections have been accepted
}

func (l *admitAllListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		if l.left > 0 {
			if l.left--; l.left == 0 {
				close(l.all)
			}
		}
		l.mu.Unlock()
	}
	return c, err
}

func (l *admitAllListener) Close() error {
	select {
	case <-l.all:
	case <-time.After(30 * time.Second):
	}
	return l.Listener.Close()
}

// distHash computes the run fingerprint exactly as the runtime does for a
// given {threads, procs} shape — which RunHash deliberately excludes, so
// every shape of the same run must agree.
func distHash(sv *Survey, init []CatalogEntry, tasks []Task, cfg InferConfig, procs int) uint64 {
	return core.RunHash(sv, init, tasks, core.Config{
		Threads:   cfg.Threads,
		Rounds:    cfg.Rounds,
		Processes: procs,
		Seed:      cfg.Seed,
		Fit:       vi.Options{MaxIter: cfg.MaxIter},
	})
}

// TestDistributedDifferentialByteIdentical is the PR's acceptance criterion:
// the TCP runtime with real worker processes produces a catalog
// byte-identical to the in-process runtime, at multiple worker counts, with
// the same run hash throughout.
func TestDistributedDifferentialByteIdentical(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}

	base, err := InferWithOptions(sv, init, icfg, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.TasksProcessed < 3 {
		t.Fatalf("only %d tasks; the differential grid needs more", base.TasksProcessed)
	}
	baseHash := distHash(sv, init, base.Tasks, icfg, 4)

	for _, workers := range []int{2, 4} {
		res, cmds, err := runTCP(t, sv, init, icfg, workers, InferOptions{}, nil)
		if err != nil {
			t.Fatalf("spawn=%d: %v", workers, err)
		}
		entriesIdentical(t, base.Catalog, res.Catalog, fmt.Sprintf("spawn=%d", workers))
		if res.TasksProcessed != base.TasksProcessed {
			t.Errorf("spawn=%d: %d tasks processed, in-process run did %d",
				workers, res.TasksProcessed, base.TasksProcessed)
		}
		if h := distHash(sv, init, base.Tasks, icfg, workers); h != baseHash {
			t.Errorf("spawn=%d: run hash %016x differs from in-process %016x", workers, h, baseHash)
		}
		for i, c := range cmds {
			if !c.ProcessState.Success() {
				t.Errorf("spawn=%d: worker %d exited %v", workers, i, c.ProcessState)
			}
		}
	}
}

// TestDistributedWorkerKillRecovers SIGKILLs one worker process the moment
// it is assigned its first task: the coordinator must detect the death,
// requeue the in-flight task onto the survivors, and still produce the
// byte-identical catalog — the paper's Section IV-B recovery story executed
// with a real process death on a real wire.
func TestDistributedWorkerKillRecovers(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	base := Infer(sv, init, icfg)

	res, _, err := runTCP(t, sv, init, icfg, 3, InferOptions{}, map[int]int{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRanks != 1 {
		t.Errorf("FailedRanks = %d, want 1", res.FailedRanks)
	}
	if res.RequeuedTasks == 0 {
		t.Error("a worker died with a task in hand but nothing was requeued")
	}
	entriesIdentical(t, base.Catalog, res.Catalog, "SIGKILLed worker")
}

// TestDistributedKillResumeDifferentWorkerCount kills a checkpointing TCP
// run partway (the checkpoint hook aborts, standing in for the coordinator
// dying right after its last durable checkpoint), then resumes the persisted
// checkpoint with a different number of worker processes. The resumed run
// must finish to the byte-identical catalog with cumulative task accounting.
func TestDistributedKillResumeDifferentWorkerCount(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	base := Infer(sv, init, icfg)
	total := base.TasksProcessed
	kill := total / 2
	if kill < 1 {
		kill = 1
	}

	var wire []byte
	n := 0
	_, _, err := runTCP(t, sv, init, icfg, 2, InferOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *Checkpoint) error {
			n++
			var buf bytes.Buffer
			if werr := imageio.WriteCheckpoint(&buf, ck); werr != nil {
				return werr
			}
			wire = buf.Bytes() // latest durable checkpoint
			if n == kill {
				return errors.New("injected coordinator kill")
			}
			return nil
		},
	}, nil)
	if !errors.Is(err, ErrRunAborted) {
		t.Fatalf("kill@%d: got %v, want ErrRunAborted", kill, err)
	}

	ck, err := imageio.ReadCheckpoint(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("reloading checkpoint: %v", err)
	}
	res, _, err := runTCP(t, sv, init, icfg, 3, InferOptions{Resume: ck}, nil)
	if err != nil {
		t.Fatalf("resume at 3 workers: %v", err)
	}
	entriesIdentical(t, base.Catalog, res.Catalog, "kill/resume at a different worker count")
	if res.TasksProcessed != total {
		t.Errorf("resumed run reports %d cumulative tasks, want %d", res.TasksProcessed, total)
	}
}

// runTCPChurn serves one run with a static complement of `static` ranks to a
// churn fleet of one worker process per spec; a spec past the complement is a
// joiner if it dials once every static rank is taken.
func runTCPChurn(t *testing.T, sv *Survey, init []CatalogEntry, cfg InferConfig,
	static int, specs []testWorkerSpec) (*InferResult, []*exec.Cmd, error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processes = static
	opts := InferOptions{Transport: &Transport{
		Listener:     l,
		DeadAfter:    3 * time.Second,
		ConnectGrace: 60 * time.Second,
	}}
	cmds := spawnTestWorkerSpecs(t, l.Addr().String(), specs)
	res, err := InferWithOptions(sv, init, cfg, opts)
	for _, c := range cmds {
		c.Wait()
	}
	return res, cmds, err
}

// TestChurnKillJoinByteIdentical is the membership-churn acceptance test: a
// static worker is SIGKILLed with a task in hand, and mid-run one worker more
// than the static complement dials in — the coordinator mints it a rank past
// the complement — and the catalog is still byte-identical to the
// single-process reference, with the same run hash.
func TestChurnKillJoinByteIdentical(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	// Every static survivor below holds one stage-0 task while the joiner
	// dials, and the joiner needs one more still pooled: a finer partition
	// than the other distributed tests use gives stage 0 three tasks.
	icfg.TargetWork = 5e4
	base, err := InferWithOptions(sv, init, icfg, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.TasksProcessed < 3 {
		t.Fatalf("only %d tasks; the churn grid needs more", base.TasksProcessed)
	}
	stage0 := 0
	for _, tk := range base.Tasks {
		if tk.Stage == 0 {
			stage0++
		}
	}
	if stage0 < 3 {
		t.Fatalf("only %d stage-0 tasks; two held by survivors and one pooled for the joiner need three", stage0)
	}
	baseHash := distHash(sv, init, base.Tasks, icfg, 1)

	for _, workers := range []int{2, 3} {
		// The fleet dials in sentinel-ordered waves, so the schedule is
		// deterministic on any machine speed. Worker 0, the victim, takes
		// rank 0 and is killed on its first assignment, touching `died` just
		// before the SIGKILL; its task requeues. Each survivor then dials
		// after the previous wave's sentinel, takes the next static rank,
		// touches its own sentinel on its first assignment and holds that
		// task until the joiner touches `working`. The joiner dials after the
		// last survivor's sentinel: every static rank is taken, and the
		// survivors' held tasks keep the run live and the stage open, with at
		// least one stage-0 task (the victim's) still pooled for it to steal.
		dir := t.TempDir()
		prev := filepath.Join(dir, "victim-died")
		working := filepath.Join(dir, "joiner-working")
		specs := []testWorkerSpec{{killAfter: 0, touchFile: prev}}
		for i := 1; i < workers; i++ {
			touch := filepath.Join(dir, fmt.Sprintf("survivor%d-working", i))
			specs = append(specs, testWorkerSpec{killAfter: -1, startFile: prev, touchFile: touch, holdFile: working})
			prev = touch
		}
		specs = append(specs, testWorkerSpec{killAfter: -1, startFile: prev, touchFile: working})

		res, cmds, err := runTCPChurn(t, sv, init, icfg, workers, specs)
		if err != nil {
			t.Fatalf("spawn=%d: %v", workers, err)
		}
		label := fmt.Sprintf("churn spawn=%d", workers)
		entriesIdentical(t, base.Catalog, res.Catalog, label)
		if res.TasksProcessed != base.TasksProcessed {
			t.Errorf("%s: %d tasks processed, in-process run did %d",
				label, res.TasksProcessed, base.TasksProcessed)
		}
		if h := distHash(sv, init, base.Tasks, icfg, workers); h != baseHash {
			t.Errorf("%s: run hash %016x differs from single-process %016x", label, h, baseHash)
		}
		if res.FailedRanks != 1 {
			t.Errorf("%s: FailedRanks = %d, want exactly the SIGKILLed worker", label, res.FailedRanks)
		}
		if res.JoinedRanks != 1 {
			t.Errorf("%s: JoinedRanks = %d, want the one elastic joiner", label, res.JoinedRanks)
		}
		if res.RequeuedTasks == 0 {
			t.Errorf("%s: the victim died with a task in hand but nothing was requeued", label)
		}
		for i, c := range cmds {
			victim := i == 0
			if victim == c.ProcessState.Success() {
				t.Errorf("%s: worker %d (victim=%v) exited %v", label, i, victim, c.ProcessState)
			}
		}
	}
}
