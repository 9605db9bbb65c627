package net

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"
)

// readyClient dials, verifies and returns a client with a fast heartbeat.
func readyClient(t *testing.T, addr string, b *fakeBackend, opts DialOptions) *Client {
	t.Helper()
	cl, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.Ready(b.cfg.RunHash, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestWirePullDryIsOneFrame: a rank that runs dry while another holds the
// stage's last task sends one pull and reads one reply, the answer, when the
// task commits. The v3 client exchanged a TaskReq/Wait, Steal/Wait pair every
// 2 ms for as long as the tail lasted.
func TestWirePullDryIsOneFrame(t *testing.T) {
	const tail = 50 * time.Millisecond
	b := newFakeBackend(2, 3, 1)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})
	busy := readyClient(t, addr, b, DialOptions{})
	task, ok, err := busy.NextTask()
	if err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}

	// The dry rank is a raw connection, so every frame it exchanges is counted
	// by construction: one written, one read.
	conn, bw := rawWorker(t, addr, b.cfg.RunHash)
	defer conn.Close()
	start := time.Now()
	if err := WriteMessage(bw, &Message{Type: MsgTaskReq}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	time.AfterFunc(tail, func() { busy.TaskDone(task, [3]uint64{}) })
	m, err := ReadMessage(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgShutdown || m.Reason != ShutdownComplete {
		t.Fatalf("the dry pull's one reply is type %d, want the Shutdown that ends the run", m.Type)
	}
	if waited := time.Since(start); waited < tail {
		t.Errorf("reply after %v: before the last task committed at %v", waited, tail)
	}
	if _, ok, err := busy.NextTask(); ok || err != nil {
		t.Fatalf("busy rank's final pull: ok=%v err=%v", ok, err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pulls[1] != 1 {
		t.Errorf("the dry rank's tail cost the backend %d pulls, want 1", b.pulls[1])
	}
}

// TestWireKeepAlive: a worker whose ResponseTimeout is shorter than the stage
// tail survives it — the coordinator answers a waiting pull with MsgWait every
// DeadAfter/4, under both the worker's response timeout and its own liveness
// deadline — and is handed its task when one appears.
func TestWireKeepAlive(t *testing.T) {
	b := newFakeBackend(1, 3, 1)
	b.gated = true
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 400 * time.Millisecond})
	cl := readyClient(t, addr, b, DialOptions{ResponseTimeout: 300 * time.Millisecond})
	time.AfterFunc(1500*time.Millisecond, func() { b.set(func() { b.gated = false }) })
	start := time.Now()
	if err := runWorkerLoopOn(cl); err != nil {
		t.Fatalf("idle worker across a %v tail: %v", time.Since(start), err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failed) != 0 {
		t.Errorf("idle worker was failed: %v", b.failed)
	}
	if b.pulls[0] != 2 {
		t.Errorf("backend saw %d pulls, want 2 (the task, the shutdown): a keep-alive is not a new pull", b.pulls[0])
	}
}

// TestWirePullWakes: a pull parked on the wire is answered the moment the run
// ends, with how it ended. A stranded run is an aborted one to its ranks (the
// backend answers NextAbort for both).
func TestWirePullWakes(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(b *fakeBackend)
		want error
	}{
		{"complete", func(b *fakeBackend) { b.Commit(0, 0, [3]uint64{}) }, nil},
		{"abort or strand", func(b *fakeBackend) { b.set(func() { b.aborted = true }) }, ErrAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newFakeBackend(2, 3, 1)
			addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})
			busy := readyClient(t, addr, b, DialOptions{})
			if _, ok, err := busy.NextTask(); err != nil || !ok {
				t.Fatalf("first pull: ok=%v err=%v", ok, err)
			}
			idle := readyClient(t, addr, b, DialOptions{}) // after busy's pull: rank 1
			pulled := make(chan error, 1)
			go func() {
				_, ok, err := idle.NextTask()
				if ok {
					err = errors.New("idle rank was handed a task")
				}
				pulled <- err
			}()
			b.waitFor(t, "the idle rank to park", func() bool { return b.pulls[1] == 1 })
			tc.end(b)
			select {
			case err := <-pulled:
				if err != tc.want {
					t.Errorf("parked pull returned %v, want %v", err, tc.want)
				}
			case <-time.After(time.Second):
				t.Fatal("parked pull missed its wake-up")
			}
			if _, ok, err := busy.NextTask(); ok || err != tc.want {
				t.Errorf("busy rank's next pull: ok=%v err=%v, want %v", ok, err, tc.want)
			}
			if err := join(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWirePullParkedWorkerKilled: a worker that dies while its pull is parked
// is not being read from, so nothing notices until the pull is answered. The
// task it is then handed must requeue with the rank, not vanish.
func TestWirePullParkedWorkerKilled(t *testing.T) {
	b := newFakeBackend(2, 3, 1)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})
	holder := readyClient(t, addr, b, DialOptions{})
	if _, ok, err := holder.NextTask(); err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	parked := readyClient(t, addr, b, DialOptions{}) // after holder's pull: rank 1
	go parked.NextTask()
	b.waitFor(t, "rank 1 to park", func() bool { return b.pulls[1] == 1 })
	parked.Close() // SIGKILL-equivalent, mid-wait
	holder.Close() // and the task's holder dies too: the task requeues to the dead parked pull
	b.waitFor(t, "both dead ranks to be failed", func() bool { return b.failed[0] && b.failed[1] })

	rescuer := readyClient(t, addr, b, DialOptions{}) // both static ranks are spent: rank 2
	if err := runWorkerLoopOn(rescuer); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if got := b.byRank[2]; len(got) != 1 {
		t.Errorf("rescuer committed %v, want the one task both dead ranks held in turn", got)
	}
}

// TestDismissAnswersLateDials: once a supervisor has seen its run end, a dial
// on the listener it still holds is answered with a Shutdown where the Welcome
// would be, and Dial says which way the run ended. The listener closes when
// the supervisor's wait returns.
func TestDismissAnswersLateDials(t *testing.T) {
	for _, tc := range []struct {
		reason byte
		want   error
	}{
		{ShutdownComplete, ErrComplete},
		{ShutdownAborted, ErrAborted},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		Dismiss(l, tc.reason, func() {
			if _, err := Dial(addr, DialOptions{Timeout: time.Second}); err != tc.want {
				t.Errorf("reason %d: late dial returned %v, want %v", tc.reason, err, tc.want)
			}
		})
		if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			t.Errorf("reason %d: listener still accepting after Dismiss returned", tc.reason)
		}
	}
}
