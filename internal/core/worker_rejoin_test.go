package core

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	cnet "celeste/internal/net"
)

// deadAddr returns a loopback address that refuses connections: it was
// listening a moment ago, so nothing else can be bound there now.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRunWorkerRejoinBackoffSpacing: with a rejoin budget, connection
// failures are retried on the configured backoff schedule — the elapsed time
// proves the sleeps happened — and the final error is the connection error.
func TestRunWorkerRejoinBackoffSpacing(t *testing.T) {
	addr := deadAddr(t)
	opts := WorkerOptions{
		Rejoin:        2,
		RejoinBackoff: Backoff{Base: 40 * time.Millisecond, Max: time.Second, Jitter: -1},
		DialTimeout:   200 * time.Millisecond,
	}
	start := time.Now()
	err := RunWorker(addr, nil, nil, opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("worker connected to a dead address")
	}
	// Jitter-free schedule: 40ms after attempt 0, 80ms after attempt 1.
	if want := 120 * time.Millisecond; elapsed < want {
		t.Errorf("three attempts took %v, want at least %v of backoff", elapsed, want)
	}
}

// TestRunWorkerRejoinWindowGivesUp: the give-up deadline ends an outage even
// with retry budget remaining, with an error that says so.
func TestRunWorkerRejoinWindowGivesUp(t *testing.T) {
	addr := deadAddr(t)
	opts := WorkerOptions{
		Rejoin:        1 << 20, // effectively unlimited; the window must end it
		RejoinBackoff: Backoff{Base: 20 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: -1},
		RejoinWindow:  100 * time.Millisecond,
		DialTimeout:   200 * time.Millisecond,
	}
	start := time.Now()
	err := RunWorker(addr, nil, nil, opts)
	if err == nil {
		t.Fatal("worker connected to a dead address")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Errorf("error %q does not announce the give-up window", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("give-up took %v, want roughly the 100ms window", elapsed)
	}
}

// TestRunWorkerNoRejoinFailsFast: without a rejoin budget the first
// connection failure is final — the pre-existing contract.
func TestRunWorkerNoRejoinFailsFast(t *testing.T) {
	start := time.Now()
	if err := RunWorker(deadAddr(t), nil, nil, WorkerOptions{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("worker connected to a dead address")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("no-rejoin failure took %v, want immediate", elapsed)
	}
}

// TestRunWorkerDialAfterRunEnded: a worker that was between rejoin attempts
// when the last coordinator incarnation finished dials a listener its
// supervisor still holds, with no incarnation alive to accept from it. The
// supervisor, dismissing, answers with how the run ended and the worker exits
// at once. Pre-fix the dial sat in the backlog for a whole DialTimeout per
// attempt until the RejoinWindow closed (the ~1-in-36 two-minute failover
// hang).
func TestRunWorkerDialAfterRunEnded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		reason byte
		want   error
	}{
		{"complete", cnet.ShutdownComplete, nil},
		{"aborted", cnet.ShutdownAborted, cnet.ErrAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			exited := make(chan error, 1)
			go func() {
				exited <- RunWorker(l.Addr().String(), nil, nil, WorkerOptions{
					Rejoin: 1 << 10, RejoinWindow: 2 * time.Minute,
				})
			}()
			cnet.Dismiss(l, tc.reason, func() {
				select {
				case err := <-exited:
					if err != tc.want {
						t.Errorf("late dialer exited with %v, want %v", err, tc.want)
					}
				case <-time.After(5 * time.Second):
					t.Error("late dialer still retrying after 5s")
				}
			})
		})
	}
}

// severFirstListener hands the coordinator's end of the first connection it
// accepts to first, so a test can cut that worker off mid-task.
type severFirstListener struct {
	net.Listener
	once  sync.Once
	first chan net.Conn
}

func (l *severFirstListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.once.Do(func() { l.first <- c })
	}
	return c, err
}

// TestAdmitRejoinerIntoFreeStaticRank: a worker whose rank died re-dials
// while a static rank of the run is still free, and is admitted to it — no
// rank is minted past the complement. This is failover's case: every worker
// of a restarted coordinator is a rejoiner, and the new incarnation's static
// ranks are all free. Before wire v5 the rejoin loop always re-dialed with
// Join and was minted a fresh rank beside the free static one, whose pool it
// then had to steal until the connect grace failed it.
func TestAdmitRejoinerIntoFreeStaticRank(t *testing.T) {
	sv, noisy, tasks := chaosSetup(t)
	cfg := chaosConfig(1, 1)
	cfg.PatchThreads = 1
	base := run(t, sv, noisy, tasks, cfg)
	cfg.Processes = 2

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &severFirstListener{Listener: l, first: make(chan net.Conn, 1)}
	// The one worker process of a two-rank run: its first connection is cut
	// with its first task in hand, so rank 0 dies, and it comes back into
	// rank 1, which nobody else will take.
	var sever sync.Once
	exited := make(chan error, 1)
	go func() {
		exited <- RunWorker(l.Addr().String(), sv, noisy, WorkerOptions{
			Threads: 1, PatchThreads: 1,
			Rejoin:        3,
			RejoinBackoff: Backoff{Base: 10 * time.Millisecond, Jitter: -1},
			OnTask: func(int, int) error {
				sever.Do(func() { (<-sl.first).Close() })
				return nil
			},
		})
	}()
	res, err := RunWithOptions(sv, noisy, tasks, cfg, RunOptions{
		Transport: &cnet.Transport{Listener: sl, TargetWork: 1e5},
	})
	if werr := <-exited; werr != nil {
		t.Errorf("worker: %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	catalogsEqual(t, base.Catalog, res.Catalog, "rejoined into a static rank")
	if res.FailedRanks != 1 {
		t.Errorf("FailedRanks = %d, want the cut-off rank 0", res.FailedRanks)
	}
	if res.JoinedRanks != 0 {
		t.Errorf("JoinedRanks = %d, want 0: the rejoiner had a free static rank to take", res.JoinedRanks)
	}
}
