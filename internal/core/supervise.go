// Coordinator failover: a supervision loop that re-runs a crashed
// coordinator from its latest durable checkpoint. The supervisor owns
// nothing but the restart policy — the run closure it is handed owns the
// listener, the checkpoint load, and the Serve call — so the same loop
// supervises an in-process coordinator (the failover tests) and a forked
// `celeste -serve` child (`celeste -supervise`).
//
// Recovery is sound for the same reason worker recovery is: every task is a
// pure function of the frozen stage input, commits are idempotent, and the
// checkpoint is written atomically. A coordinator SIGKILLed between
// checkpoints only loses uncommitted progress; the restarted incarnation
// resumes from the last durable cut, workers re-enroll through the one
// handshake (run-hash verified) into its free static ranks, and redundantly
// re-executed tasks commit to the same bytes.
package core

import (
	"errors"
	"fmt"
	"time"
)

// SuperviseOptions tunes the restart policy of Supervise.
type SuperviseOptions struct {
	// MaxRestarts bounds how many times a failed run is restarted before
	// Supervise gives up and returns the last error (default 5; negative
	// means no restarts at all).
	MaxRestarts int
	// Backoff spaces the restarts (zero value: 100ms base, 5s cap).
	Backoff Backoff
	// Permanent classifies errors that a restart cannot fix, ending the
	// loop immediately. Defaults to errors.Is(err, ErrAborted): a run its
	// own checkpoint hook stopped must stay stopped.
	Permanent func(error) bool
	// OnRestart observes each restart decision: the 1-based restart number
	// and the error that caused it. Typically a log line.
	OnRestart func(restart int, err error)
	// Sleep is a test seam (default time.Sleep).
	Sleep func(time.Duration)
}

// Supervise runs the coordinator closure until it succeeds, fails
// permanently, or exhausts the restart budget. The closure receives the
// 0-based incarnation number; it is responsible for resuming from the latest
// durable checkpoint (incarnation 0 starts fresh unless one already exists).
func Supervise(run func(incarnation int) error, opts SuperviseOptions) error {
	if opts.MaxRestarts == 0 {
		opts.MaxRestarts = 5
	}
	if opts.Permanent == nil {
		opts.Permanent = func(err error) bool { return errors.Is(err, ErrAborted) }
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	for incarnation := 0; ; incarnation++ {
		err := run(incarnation)
		if err == nil {
			return nil
		}
		if opts.Permanent(err) {
			return err
		}
		if incarnation >= opts.MaxRestarts {
			return fmt.Errorf("core: coordinator failed permanently after %d restarts: %w",
				incarnation, err)
		}
		if opts.OnRestart != nil {
			opts.OnRestart(incarnation+1, err)
		}
		opts.Sleep(opts.Backoff.Delay(incarnation))
	}
}
