// The worker side of the TCP runtime. A worker process owns a full copy of
// the run inputs (survey, initialization catalog), reconstructs everything
// derived — priors, the two-stage partition, the run hash — and proves the
// reconstruction byte-identical to the coordinator's before it is served a
// single task. From then on it runs the exact ExecTask the in-process ranks
// run, reading frozen stage input and writing results through the wire.
package core

import (
	"errors"
	"fmt"
	"os"
	"time"

	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// WorkerOptions configures one TCP worker process.
type WorkerOptions struct {
	// Threads is the Cyclades thread count inside each task. It is a free
	// parameter: the frozen-input discipline makes the catalog independent
	// of it, so heterogeneous workers still produce identical bytes.
	Threads int

	// PatchThreads is the intra-fit patch-sweep worker count per thread
	// (0 derives it from spare cores; see core.Config.PatchThreads). Free
	// like Threads: the fixed-order partial reduction makes evaluations
	// bitwise independent of it, so it is neither hashed nor on the wire —
	// each worker process picks its own.
	PatchThreads int

	// HeartbeatEvery is the liveness beacon period (default 500ms); it must
	// be well under the coordinator's DeadAfter.
	HeartbeatEvery time.Duration

	// DialTimeout bounds the TCP dial and handshake (default 10s).
	DialTimeout time.Duration

	// Rejoin, when positive, turns connection and heartbeat failures into
	// re-dials (up to that many per outage) instead of hard exits: the old
	// rank was declared dead and its work requeued, so the process comes back
	// as whatever rank the coordinator admits it to — a free static one (a
	// restarted coordinator's), else a fresh one that steals its way in. The
	// budget resets whenever a rejoin gets far enough to complete the
	// run-hash handshake, so a long-lived worker rides out any number of
	// separate outages. Aborted runs and input mismatches never rejoin —
	// retrying a refused handshake cannot succeed.
	Rejoin int

	// RejoinBackoff spaces the rejoin attempts of one outage (zero value:
	// 100ms base doubling to a 5s cap, ±20% deterministic jitter). Without
	// it a coordinator restart would be hammered by immediate re-dials from
	// the whole fleet at once. A zero Seed is replaced by the process id, so
	// the workers of one fleet, which share every option, jitter apart.
	RejoinBackoff Backoff

	// RejoinWindow, when positive, is the give-up deadline for one outage:
	// if reconnection attempts have not completed a handshake for this long,
	// the worker stops retrying and returns the last error even with Rejoin
	// budget remaining. It bounds how long a fleet outlives a coordinator
	// that is never coming back.
	RejoinWindow time.Duration

	// OnTask, when set, is invoked after each task assignment and before
	// execution, with the global task index and how many tasks this worker
	// has completed so far. A non-nil error ends the worker with the task in
	// hand: the task is not executed, the worker does not rejoin, its
	// connection closes, and RunWorker returns the error. The coordinator
	// sees the same event as a SIGKILLed worker or a reset link, and
	// requeues the rank's work. Tests inject every rank death this way (or
	// by SIGKILLing a worker process from it).
	OnTask func(task, completed int) error
}

// RunWorker connects to a serving coordinator and processes tasks until the
// coordinator shuts the session down. A completed run returns nil; an
// aborted run returns cnet.ErrAborted (the worker did nothing wrong, but a
// supervisor must not read the exit as success). Other errors are connection
// failures, protocol violations, and input mismatches (the run-hash
// handshake refuses a worker whose reconstructed run differs from the
// coordinator's). With opts.Rejoin set, connection-level failures re-dial
// instead of returning. A worker that wants to leave a run exits: its
// connection ends, and the coordinator requeues whatever its rank held.
func RunWorker(addr string, sv *survey.Survey, catalog []model.CatalogEntry, opts WorkerOptions) error {
	// The run reconstruction (partition + priors + hash) is a pure function
	// of the local inputs; compute it once and reuse it across rejoins.
	var in *rankInputs
	var hash uint64
	completed := 0
	var onTask func(task int) error
	var stopped error // OnTask's error: the worker ends, it does not rejoin
	if opts.OnTask != nil {
		onTask = func(task int) error {
			stopped = opts.OnTask(task, completed)
			return stopped
		}
	}
	backoff := pidSeeded(opts.RejoinBackoff, os.Getpid())
	attempt := 0
	var outageStart time.Time // zero while connected; set at first failure
	for {
		handshook := false
		err := func() error {
			cl, err := cnet.Dial(addr, cnet.DialOptions{Timeout: opts.DialTimeout})
			if err != nil {
				return err
			}
			defer cl.Close()
			w := cl.Welcome()
			if int(w.Width) != model.ParamDim {
				return &workerSetupError{fmt.Errorf(
					"core: coordinator parameters have width %d, this build has %d",
					w.Width, model.ParamDim)}
			}
			if in == nil {
				cfg := Config{
					Threads:      opts.Threads,
					PatchThreads: opts.PatchThreads,
					Rounds:       int(w.Rounds),
					Seed:         w.Seed,
					Processes:    int(w.Workers),
					Fit:          vi.Options{MaxIter: int(w.MaxIter), GradTol: w.GradTol},
				}
				tasks := partition.GenerateTwoStage(catalog, sv.Config.Region, partition.Options{
					TargetWork: w.TargetWork,
				})
				priors := model.FitPriors(catalog)
				hash = RunHash(sv, catalog, tasks, cfg)
				in = &rankInputs{cfg: cfg, sv: sv, catalog: catalog, priors: &priors, tasks: tasks}
			}
			if uint64(len(in.tasks)) != w.NTasks {
				return &workerSetupError{fmt.Errorf(
					"core: regenerated %d tasks, coordinator schedules %d (different run inputs?)",
					len(in.tasks), w.NTasks)}
			}
			if hash != w.RunHash {
				return &workerSetupError{fmt.Errorf(
					"core: run hash mismatch: this worker computed %016x, coordinator's run is %016x",
					hash, w.RunHash)}
			}
			if err := cl.Ready(hash, opts.HeartbeatEvery); err != nil {
				return err
			}
			handshook = true

			for {
				more, err := in.step(cl, onTask)
				if err != nil || !more {
					return err
				}
				completed++
			}
		}()
		if err == nil || errors.Is(err, cnet.ErrComplete) {
			return nil // the run is over
		}
		var setup *workerSetupError
		if stopped != nil || errors.Is(err, cnet.ErrAborted) || errors.As(err, &setup) {
			return err // OnTask ended the worker, or a deterministic refusal: rejoining cannot help
		}
		if handshook {
			// The connection got far enough to verify the run hash: this is
			// a fresh outage, not a continuation of the previous one. Reset
			// the per-outage retry budget and give-up clock.
			attempt = 0
			outageStart = time.Time{}
		}
		if attempt >= opts.Rejoin {
			return err
		}
		if outageStart.IsZero() {
			outageStart = time.Now()
		} else if opts.RejoinWindow > 0 && time.Since(outageStart) > opts.RejoinWindow {
			return fmt.Errorf("core: giving up after %v of failed rejoins (window %v): %w",
				time.Since(outageStart).Round(time.Millisecond), opts.RejoinWindow, err)
		}
		// Our rank is (or will shortly be) declared dead and its work
		// requeued; back off — jittered, so a restarted coordinator is not
		// stampeded by the whole fleet at once — then dial again.
		time.Sleep(backoff.Delay(attempt))
		attempt++
	}
}

// pidSeeded returns b with a zero Seed replaced by pid.
func pidSeeded(b Backoff, pid int) Backoff {
	if b.Seed == 0 {
		b.Seed = uint64(pid)
	}
	return b
}

// workerSetupError marks deterministic handshake and validation failures
// that must not trigger a rejoin.
type workerSetupError struct{ err error }

func (e *workerSetupError) Error() string { return e.err.Error() }
func (e *workerSetupError) Unwrap() error { return e.err }
