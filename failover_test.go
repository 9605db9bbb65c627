package celeste

// Coordinator-failover end-to-end tests: the coordinator itself is SIGKILLed
// at durable checkpoint boundaries and restarted by a supervision loop, while
// the worker fleet — forked once — re-enrolls with every incarnation through
// its rejoin budget. The supervisor never holds run state; the listening
// socket lives in the test process and each coordinator incarnation inherits
// it (fd 3), so the address survives the crash and worker dials issued while
// no coordinator is alive queue in the socket backlog. The acceptance bar is
// the repo's usual one: the final catalog file is byte-identical to a
// crash-free run's.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"celeste/internal/core"
	"celeste/internal/imageio"
	cnet "celeste/internal/net"
)

const (
	coordFDEnv    = "CELESTE_TEST_COORD_FD"
	coordCkptEnv  = "CELESTE_TEST_COORD_CKPT"
	coordOutEnv   = "CELESTE_TEST_COORD_OUT"
	coordProcsEnv = "CELESTE_TEST_COORD_PROCS"
	coordKillEnv  = "CELESTE_TEST_COORD_KILL"
)

// runTestCoordinator is the body of a re-exec'd coordinator incarnation. It
// serves the shared fixed-seed run on the listener inherited from the
// supervising test, resuming from the checkpoint file if one exists, and —
// when CELESTE_TEST_COORD_KILL=k is set — SIGKILLs itself immediately after
// its k-th checkpoint is durably on disk: the exact "crashed at a checkpoint
// boundary" case. A surviving incarnation writes the final catalog.
func runTestCoordinator() {
	fail := func(code int, args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"coordinator:"}, args...)...)
		os.Exit(code)
	}
	fd, err := strconv.Atoi(os.Getenv(coordFDEnv))
	if err != nil {
		fail(2, "bad fd:", err)
	}
	f := os.NewFile(uintptr(fd), "coordinator-listener")
	l, err := net.FileListener(f)
	f.Close()
	if err != nil {
		fail(2, "inheriting listener:", err)
	}
	procs, err := strconv.Atoi(os.Getenv(coordProcsEnv))
	if err != nil {
		fail(2, "bad procs:", err)
	}
	ckPath, outPath := os.Getenv(coordCkptEnv), os.Getenv(coordOutEnv)
	killAt := 0
	if ks := os.Getenv(coordKillEnv); ks != "" {
		if killAt, err = strconv.Atoi(ks); err != nil {
			fail(2, "bad kill spec:", err)
		}
	}

	sv, init, icfg := distInputs()
	icfg.Processes = procs
	opts := InferOptions{
		CheckpointEvery: 1,
		Transport: &Transport{
			Listener:     l,
			DeadAfter:    3 * time.Second,
			ConnectGrace: 60 * time.Second,
		},
	}
	saved := 0
	opts.OnCheckpoint = func(ck *Checkpoint) error {
		if err := imageio.SaveCheckpoint(ckPath, ck); err != nil {
			return err
		}
		saved++
		if killAt > 0 && saved >= killAt {
			// SaveCheckpoint is atomic (tmp + rename + dir sync), so the
			// state dying here is exactly what the next incarnation resumes.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable: SIGKILL cannot be handled
		}
		return nil
	}
	if ck, err := imageio.LoadCheckpoint(ckPath); err == nil {
		opts.Resume = ck
	} else if !os.IsNotExist(err) {
		fail(2, "loading checkpoint:", err)
	}
	res, err := InferWithOptions(sv, init, icfg, opts)
	if err != nil {
		fail(1, err)
	}
	if err := imageio.WriteCatalog(outPath, res.Catalog); err != nil {
		fail(2, err)
	}
	os.Exit(0)
}

// superviseTCPRun drives one supervised run to completion: a worker fleet
// forked once with a rejoin budget, plus core.Supervise restarting
// coordinator incarnations that die to a signal. killSchedule[i] is the
// checkpoint count at which incarnation i SIGKILLs itself; the incarnation
// past the schedule runs to completion. Returns the final catalog path.
func superviseTCPRun(t *testing.T, workers int, killSchedule []int) string {
	t.Helper()
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "run.celk")
	outPath := filepath.Join(dir, "catalog.jsonl")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lf, err := l.(*net.TCPListener).File()
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()

	cmds := make([]*exec.Cmd, 0, workers)
	for i := 0; i < workers; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			workerAddrEnv+"="+l.Addr().String(),
			workerRejoinEnv+"=100000")
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

	incarnations := 0
	err = core.Supervise(func(inc int) error {
		incarnations++
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			coordFDEnv+"=3",
			coordCkptEnv+"="+ckPath,
			coordOutEnv+"="+outPath,
			coordProcsEnv+"="+strconv.Itoa(workers))
		if inc < len(killSchedule) {
			cmd.Env = append(cmd.Env, coordKillEnv+"="+strconv.Itoa(killSchedule[inc]))
		}
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{lf}
		if err := cmd.Start(); err != nil {
			return err
		}
		return cmd.Wait()
	}, core.SuperviseOptions{
		MaxRestarts: len(killSchedule) + 2,
		Backoff:     core.Backoff{Base: 50 * time.Millisecond, Jitter: -1},
		Permanent: func(err error) bool {
			// Only a signal death is a crash worth restarting; a clean
			// non-zero exit means the incarnation diagnosed its own problem.
			var ee *exec.ExitError
			return !(errors.As(err, &ee) && ee.ExitCode() == -1)
		},
	})
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	if want := len(killSchedule) + 1; incarnations != want {
		t.Errorf("ran %d coordinator incarnations, want %d (one per scheduled kill plus the survivor)",
			incarnations, want)
	}
	// The run completed: every worker gets its shutdown — from the last
	// incarnation, or on its next dial from here — and must exit cleanly.
	cnet.Dismiss(l, cnet.ShutdownComplete, func() {
		for i, c := range cmds {
			if err := c.Wait(); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}
	})
	return outPath
}

// TestCoordinatorFailoverByteIdentical is the failover tentpole's acceptance
// test: SIGKILL the coordinator at durable checkpoint boundaries — once early
// at spawn=2, twice (mid-run, then again right after the first restart's
// checkpoint) at spawn=4 — and the supervised run's final catalog file must
// be byte-identical to a crash-free in-process run's.
func TestCoordinatorFailoverByteIdentical(t *testing.T) {
	sv, init, icfg := distInputs()
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	base, err := InferWithOptions(sv, init, icfg, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := base.TasksProcessed
	if total < 3 {
		t.Fatalf("only %d tasks; the failover grid needs more", total)
	}
	ref := filepath.Join(t.TempDir(), "reference.jsonl")
	if err := imageio.WriteCatalog(ref, base.Catalog); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		workers int
		kills   []int
	}{
		{2, []int{1}},            // crash right after the first durable checkpoint
		{4, []int{total / 2, 1}}, // mid-run crash, then crash the restarted coordinator too
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("spawn=%d_kills=%v", tc.workers, tc.kills), func(t *testing.T) {
			out := superviseTCPRun(t, tc.workers, tc.kills)
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatalf("supervised run left no catalog: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("supervised catalog differs from the crash-free reference (%d vs %d bytes)",
					len(got), len(want))
			}
		})
	}
}
