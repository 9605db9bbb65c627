package core

import (
	"net"
	"strings"
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
		RejoinBackoff: Backoff{Base: 40 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: -1},
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
