package net

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"celeste/internal/pgas"
)

// fakeBackend is a scripted run: nTasks tasks handed out in order, a prev
// array served for reads, a cur array collecting writes. It implements
// Backend without any inference machinery, so the coordinator/worker
// plumbing is tested in isolation. Like the real backend its Next waits, on
// wake, until it has a task or a terminal answer.
type fakeBackend struct {
	cfg RunConfig

	mu        sync.Mutex
	wake      sync.Cond // broadcast on every change a waiting Next may have a new answer for
	next      int
	requeued  []int         // tasks surrendered by failed ranks, served first
	inflight  map[int][]int // rank -> tasks handed out, not yet committed
	committed map[int][3]uint64
	failed    map[int]bool
	byRank    map[int][]int
	pulls     map[int]int // rank -> Next calls
	aborted   bool
	gated     bool // while true, Next hands out nothing
	joined    int  // ranks minted past the static complement

	slowGet time.Duration // set before serving: Get stalls this long first

	prev, cur *pgas.Array

	done      chan struct{}
	closeOnce sync.Once
}

func newFakeBackend(workers, width, nTasks int) *fakeBackend {
	b := &fakeBackend{
		cfg: RunConfig{
			Workers: uint32(workers), Width: uint32(width),
			Rounds: 1, MaxIter: 8, NTasks: uint64(nTasks),
			RunHash: 0xc0ffee, Seed: 7, TargetWork: 1e5,
		},
		inflight:  make(map[int][]int),
		committed: make(map[int][3]uint64),
		failed:    make(map[int]bool),
		byRank:    make(map[int][]int),
		pulls:     make(map[int]int),
		prev:      pgas.New(nTasks, width, workers),
		cur:       pgas.New(nTasks, width, workers),
		done:      make(chan struct{}),
	}
	b.wake.L = &b.mu
	buf := make([]float64, width)
	for i := 0; i < nTasks; i++ {
		for k := range buf {
			buf[k] = float64(i*100 + k)
		}
		b.prev.Put(0, i, buf)
	}
	return b
}

func (b *fakeBackend) Welcome() RunConfig    { return b.cfg }
func (b *fakeBackend) Done() <-chan struct{} { return b.done }
func (b *fakeBackend) finish()               { b.closeOnce.Do(func() { close(b.done) }) }

// set changes scripted state under the lock and wakes every waiting Next.
func (b *fakeBackend) set(change func()) {
	b.mu.Lock()
	change()
	b.wake.Broadcast()
	b.mu.Unlock()
}

func (b *fakeBackend) Next(rank int) (int, NextStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pulls[rank]++
	for {
		switch {
		case b.aborted:
			b.finish()
			return 0, NextAbort
		case b.failed[rank]:
			return 0, NextShutdown
		case len(b.committed) == int(b.cfg.NTasks):
			b.finish()
			return 0, NextShutdown
		case b.gated:
		case len(b.requeued) > 0:
			n := len(b.requeued)
			t := b.requeued[n-1]
			b.requeued = b.requeued[:n-1]
			b.inflight[rank] = append(b.inflight[rank], t)
			return t, NextTask
		case b.next < int(b.cfg.NTasks):
			t := b.next
			b.next++
			b.inflight[rank] = append(b.inflight[rank], t)
			return t, NextTask
		}
		b.wake.Wait()
	}
}

func (b *fakeBackend) Commit(rank, task int, stats [3]uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.wake.Broadcast()
	if _, dup := b.committed[task]; dup {
		return
	}
	b.committed[task] = stats
	b.byRank[rank] = append(b.byRank[rank], task)
	held := b.inflight[rank]
	for k, t := range held {
		if t == task {
			b.inflight[rank] = append(held[:k], held[k+1:]...)
			break
		}
	}
	if len(b.committed) == int(b.cfg.NTasks) {
		b.finish()
	}
}

func (b *fakeBackend) Fail(rank int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed[rank] {
		return
	}
	b.failed[rank] = true
	b.requeued = append(b.requeued, b.inflight[rank]...)
	b.inflight[rank] = nil
	b.wake.Broadcast()
}

func (b *fakeBackend) Join() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted || len(b.committed) == int(b.cfg.NTasks) {
		return 0, false // terminal
	}
	rank := int(b.cfg.Workers) + b.joined
	b.joined++
	return rank, true
}

func (b *fakeBackend) Get(rank int, idx []uint64, out []float64) error {
	if b.slowGet > 0 {
		time.Sleep(b.slowGet)
	}
	w := int(b.cfg.Width)
	for k, i := range idx {
		if i >= uint64(b.prev.N()) {
			return fmt.Errorf("fake: element %d out of range", i)
		}
		b.prev.Get(rank, int(i), out[k*w:(k+1)*w])
	}
	return nil
}

func (b *fakeBackend) Put(rank int, idx []uint64, vals []float64) error {
	w := int(b.cfg.Width)
	for k, i := range idx {
		if i >= uint64(b.cur.N()) {
			return fmt.Errorf("fake: element %d out of range", i)
		}
		b.cur.Put(rank, int(i), vals[k*w:(k+1)*w])
	}
	return nil
}

// startServe launches Serve over a loopback listener and returns the address
// plus a join function.
func startServe(t *testing.T, b Backend, opts ServeOptions) (string, func() error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- Serve(l, b, opts) }()
	return l.Addr().String(), func() error { return <-errCh }
}

// runWorkerLoop is a minimal in-test worker: dial, verify, work to the end.
func runWorkerLoop(t *testing.T, addr string, hash uint64) error {
	cl, err := Dial(addr, DialOptions{})
	if err != nil {
		return err
	}
	defer cl.Close()
	if err := cl.Ready(hash, 20*time.Millisecond); err != nil {
		return err
	}
	return runWorkerLoopOn(cl)
}

// runWorkerLoopOn is the work loop of a verified client: pull, read the
// task's element, write its negation, report done.
func runWorkerLoopOn(cl *Client) error {
	w := int(cl.Welcome().Width)
	buf := make([]float64, w)
	for {
		task, ok, err := cl.NextTask()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := cl.GetMulti([]int{task}, buf); err != nil {
			return err
		}
		for k := range buf {
			buf[k] = -buf[k]
		}
		if err := cl.PutMulti([]int{task}, buf); err != nil {
			return err
		}
		if err := cl.TaskDone(task, [3]uint64{1, 2, 3}); err != nil {
			return err
		}
	}
}

// waitFor polls a condition on the backend's scripted state.
func (b *fakeBackend) waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		b.mu.Lock()
		ok := cond()
		b.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServeHappyPath drives two workers through a full scripted run: every
// task committed exactly once, every Get answered from prev, every Put
// landed in cur, ranks assigned distinctly.
func TestServeHappyPath(t *testing.T) {
	const nTasks, width = 9, 4
	b := newFakeBackend(2, width, nTasks)
	b.gated = true // until both workers are in: the scripted run is over in microseconds
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runWorkerLoop(t, addr, b.cfg.RunHash)
		}(i)
	}
	b.waitFor(t, "both ranks to pull", func() bool { return b.pulls[0] > 0 && b.pulls[1] > 0 })
	b.set(func() { b.gated = false })
	wg.Wait()
	if err := join(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if len(b.committed) != nTasks {
		t.Fatalf("%d tasks committed, want %d", len(b.committed), nTasks)
	}
	for task, stats := range b.committed {
		if stats != [3]uint64{1, 2, 3} {
			t.Errorf("task %d committed with stats %v", task, stats)
		}
	}
	buf := make([]float64, width)
	for i := 0; i < nTasks; i++ {
		b.cur.Get(0, i, buf)
		for k, v := range buf {
			if want := -float64(i*100 + k); v != want {
				t.Fatalf("cur[%d][%d] = %v, want %v", i, k, v, want)
			}
		}
	}
}

// TestServeHashMismatchRefused: a worker whose reconstructed run differs is
// refused before it holds a rank — it is never served a task, and it costs the
// run nothing. Pre-fix the rank was assigned on Hello and failed on the
// refusal: one mis-pointed worker left rank 0 dead for the run, and the second
// of two good workers after it was refused "worker complement already full".
func TestServeHashMismatchRefused(t *testing.T) {
	b := newFakeBackend(2, 3, 4)
	b.gated = true // until both good workers are in
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})

	err := runWorkerLoop(t, addr, b.cfg.RunHash+1)
	if err == nil {
		t.Fatal("mismatched worker ran to completion")
	}

	// The full complement of good workers is still admitted.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- runWorkerLoop(t, addr, b.cfg.RunHash) }()
	}
	b.waitFor(t, "both static ranks to be taken", func() bool { return b.pulls[0] > 0 && b.pulls[1] > 0 })
	b.set(func() { b.gated = false })
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("good worker: %v", err)
		}
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failed) != 0 {
		t.Errorf("the refused handshake failed ranks %v; it never held one", b.failed)
	}
	if len(b.committed) != 4 {
		t.Errorf("%d tasks committed, want 4", len(b.committed))
	}
}

// TestServeAbruptDeathFailsRank: a worker that dies mid-task (connection
// torn down, no goodbye) must be failed so its work requeues.
func TestServeAbruptDeathFailsRank(t *testing.T) {
	b := newFakeBackend(2, 3, 4)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})

	cl, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Ready(b.cfg.RunHash, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.NextTask(); err != nil || !ok {
		t.Fatalf("task pull: ok=%v err=%v", ok, err)
	}
	cl.Close() // dies with the task in hand

	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		failed := b.failed[0]
		b.mu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead worker's rank was never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestServeHeartbeatTimeoutFailsRank: a connected-but-silent worker (hung,
// not dead — the socket stays open) trips the read deadline and is failed.
func TestServeHeartbeatTimeoutFailsRank(t *testing.T) {
	b := newFakeBackend(2, 3, 4)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 120 * time.Millisecond})

	// A raw connection that completes the handshake and then goes silent:
	// no heartbeat goroutine, no traffic, socket held open.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := WriteMessage(bw, &Message{Type: MsgHello}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if _, err := ReadMessage(conn); err != nil { // Welcome
		t.Fatal(err)
	}
	if err := WriteMessage(bw, &Message{Type: MsgReady, Hash: b.cfg.RunHash}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()

	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		failed := b.failed[0]
		b.mu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent worker was never declared dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestServeVersionMismatchRefused: a peer speaking another protocol version
// is told so and refused.
func TestServeVersionMismatchRefused(t *testing.T) {
	b := newFakeBackend(1, 3, 1)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: time.Second})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame(ProtocolVersion+1, MsgHello, nil)); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("expected an error reply, got %v", err)
	}
	if m.Type != MsgError {
		t.Fatalf("got message type %d, want MsgError", m.Type)
	}
	// Finish the run so Serve exits.
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestServeAbortShutsWorkersDown: after the backend aborts, pulling workers
// are shut down with the abort surfaced as ErrAborted, so a supervisor can
// tell an aborted run from a completed one.
func TestServeAbortShutsWorkersDown(t *testing.T) {
	b := newFakeBackend(1, 3, 8)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: time.Second})
	cl, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ready(b.cfg.RunHash, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.NextTask(); err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	b.set(func() { b.aborted = true })
	if _, ok, err := cl.NextTask(); ok || !errors.Is(err, ErrAborted) {
		t.Fatalf("post-abort pull: ok=%v err=%v, want ErrAborted", ok, err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestServeConnectGraceFailsAbsentRanks: ranks that never connect are failed
// after the grace period, so their statically allocated work requeues and the
// one worker that did connect finishes the run instead of stranding it.
func TestServeConnectGraceFailsAbsentRanks(t *testing.T) {
	b := newFakeBackend(3, 3, 4)
	b.gated = true // hold the run open until the test has observed the grace
	addr, join := startServe(t, b, ServeOptions{
		DeadAfter:    5 * time.Second,
		ConnectGrace: 100 * time.Millisecond,
	})
	workerErr := make(chan error, 1)
	go func() { workerErr <- runWorkerLoop(t, addr, b.cfg.RunHash) }()
	b.waitFor(t, "the absent ranks to be failed", func() bool { return b.failed[1] && b.failed[2] })

	b.set(func() { b.gated = false })
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.committed) != 4 {
		t.Fatalf("%d tasks committed, want 4", len(b.committed))
	}
	if len(b.byRank[0]) != 4 {
		t.Errorf("the one connected rank committed %d tasks, want all 4", len(b.byRank[0]))
	}
	if b.failed[0] {
		t.Error("the connected rank was failed by the grace")
	}
}

// TestElasticJoinAdmittedAfterGrace: a worker arriving after the connect
// grace sealed static rank assignment is admitted as a joiner — a fresh rank
// past the complement — and takes part in the run. Before wire v5 that
// worker was refused, the complement being sealed, unless it had opened with
// an elastic Join; now the coordinator decides admission for every dial.
func TestElasticJoinAdmittedAfterGrace(t *testing.T) {
	b := newFakeBackend(2, 3, 6)
	b.gated = true // hold the run open until the joiner is in
	addr, join := startServe(t, b, ServeOptions{
		DeadAfter:    5 * time.Second,
		ConnectGrace: 80 * time.Millisecond,
	})
	workerErr := make(chan error, 1)
	go func() { workerErr <- runWorkerLoop(t, addr, b.cfg.RunHash) }()
	b.waitFor(t, "the grace to fail the absent rank", func() bool { return b.failed[1] })

	// Only one of two static ranks ever connected, but the grace sealed
	// them: the late worker is minted rank 2.
	late := readyClient(t, addr, b, DialOptions{Timeout: time.Second})
	joinerErr := make(chan error, 1)
	go func() { joinerErr <- runWorkerLoopOn(late) }()
	b.waitFor(t, "the joiner to pull", func() bool { return b.pulls[2] > 0 })
	b.set(func() { b.gated = false })
	if err := <-joinerErr; err != nil {
		t.Fatalf("joiner: %v", err)
	}
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.committed) != 6 {
		t.Fatalf("%d tasks committed, want 6", len(b.committed))
	}
	if b.joined != 1 {
		t.Errorf("backend minted %d ranks past the complement, want 1", b.joined)
	}
	if b.failed[2] {
		t.Error("joiner's clean completion was recorded as failed")
	}
}

// TestAdmitJoinerPastFullComplement: a worker whose hash verifies while every
// static rank is taken — and the connect grace has not sealed them — is
// admitted through Backend.Join and does work. Before wire v5 only a Join
// handshake got that far; a Hello was refused, the complement being full.
func TestAdmitJoinerPastFullComplement(t *testing.T) {
	b := newFakeBackend(1, 3, 2)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second, ConnectGrace: time.Minute})
	holder := readyClient(t, addr, b, DialOptions{})
	held, ok, err := holder.NextTask() // the one static rank is taken, its task in hand
	if err != nil || !ok {
		t.Fatalf("holder's pull: ok=%v err=%v", ok, err)
	}

	joiner := readyClient(t, addr, b, DialOptions{})
	joinerErr := make(chan error, 1)
	go func() { joinerErr <- runWorkerLoopOn(joiner) }()
	b.waitFor(t, "the joiner to commit the pooled task", func() bool { return len(b.byRank[1]) == 1 })
	if err := holder.TaskDone(held, [3]uint64{}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := holder.NextTask(); ok || err != nil {
		t.Fatalf("holder's final pull: ok=%v err=%v", ok, err)
	}
	if err := <-joinerErr; err != nil {
		t.Fatalf("joiner: %v", err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.joined != 1 {
		t.Errorf("backend minted %d ranks past the complement, want 1", b.joined)
	}
	if len(b.failed) != 0 {
		t.Errorf("ranks failed in a clean run: %v", b.failed)
	}
}

// TestJoinRefusedOnHashMismatch: a worker that would be admitted past the
// full complement, but whose Ready hash fails verification, must leave the
// run untouched. Pre-fix, the coordinator called Backend.Join before reading
// Ready, so every flapping mismatched joiner permanently grew the rank space
// (and repartitioned both PGAS arrays), and was then also counted as a failed
// rank — double-counted in the run's joined/failed accounting.
func TestJoinRefusedOnHashMismatch(t *testing.T) {
	b := newFakeBackend(1, 3, 2)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})

	// A flapping joiner: three attempts, each with a mismatched hash.
	for i := 0; i < 3; i++ {
		cl, err := Dial(addr, DialOptions{Timeout: time.Second})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if err := cl.Ready(b.cfg.RunHash+1, 0); err != nil {
			t.Fatalf("ready %d: %v", i, err)
		}
		if _, _, err := cl.NextTask(); err == nil {
			t.Fatal("mismatched joiner was served a task")
		}
		cl.Close()
	}
	b.mu.Lock()
	if b.joined != 0 {
		t.Errorf("%d refused joiners were admitted (Backend.Join ran before the hash verified)", b.joined)
	}
	if len(b.failed) != 0 {
		t.Errorf("refused joiners were counted as failed ranks: %v", b.failed)
	}
	b.mu.Unlock()

	// A static worker with the right hash still completes the run.
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestLateJoinOnFinishedRunIsShutdown: a joiner — a worker that verifies
// with every static rank taken — whose handshake completes after the run went
// terminal (it was backing off, or hashing, when the last task committed)
// must be shut down with the run's real outcome, as any rank is. Pre-fix the
// refused Backend.Join was answered with MsgError "join refused (run is
// terminal)": the worker burned its rejoin budget against a finished run and
// exited non-zero.
func TestLateJoinOnFinishedRunIsShutdown(t *testing.T) {
	for _, tc := range []struct {
		name    string
		aborted bool
		want    error
	}{
		{"complete", false, nil},
		{"aborted", true, ErrAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newFakeBackend(1, 3, 1)
			addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})
			// The one static rank is taken (its pull proves it), so the late
			// worker can only be admitted through Backend.Join.
			holder := readyClient(t, addr, b, DialOptions{})
			if _, ok, err := holder.NextTask(); err != nil || !ok {
				t.Fatalf("holder's pull: ok=%v err=%v", ok, err)
			}
			// Dialed but not yet verified: the window a rejoining worker
			// spends rebuilding and hashing its run.
			cl, err := Dial(addr, DialOptions{Timeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if tc.aborted {
				b.set(func() { b.aborted = true })
			} else {
				b.Commit(0, 0, [3]uint64{}) // the run's only task: complete
			}
			if err := cl.Ready(b.cfg.RunHash, 20*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			_, ok, err := cl.NextTask()
			if ok {
				t.Fatal("late joiner was served a task from a terminal run")
			}
			if err != tc.want {
				t.Fatalf("late joiner's pull returned %v, want %v", err, tc.want)
			}
			if _, ok, err := holder.NextTask(); ok || err != tc.want {
				t.Fatalf("holder's final pull: ok=%v err=%v, want %v", ok, err, tc.want)
			}
			if err := join(); err != nil {
				t.Fatal(err)
			}
			b.mu.Lock()
			defer b.mu.Unlock()
			if b.joined != 0 || len(b.failed) != 0 {
				t.Errorf("late joiner changed the run: joined=%d failed=%v", b.joined, b.failed)
			}
		})
	}
}

// TestClientCloseConcurrent: Close must be safe against itself (a supervisor
// racing the run loop's deferred teardown) — the old check-then-close on the
// heartbeat channel double-closed and panicked under this test.
func TestClientCloseConcurrent(t *testing.T) {
	b := newFakeBackend(1, 3, 1)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: time.Second})
	cl, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Ready(b.cfg.RunHash, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Close()
		}()
	}
	wg.Wait()
	// The backend never completes its task; finish the run with a fresh
	// worker — a joiner, since the static complement of one rank is spent —
	// so Serve exits. The closed client's rank is failed by the coordinator
	// and its task requeues.
	cl2, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl2.Ready(b.cfg.RunHash, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := runWorkerLoopOn(cl2); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatFailureSurfaced: when the heartbeat send fails (coordinator
// gone), the client records the error and tears the connection down so the
// work loop notices promptly — it must not keep computing for a coordinator
// that has already requeued its tasks.
func TestHeartbeatFailureSurfaced(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A minimal fake coordinator: handshake, then vanish.
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		bw := bufio.NewWriter(c)
		if _, err := ReadMessage(c); err != nil { // Hello
			return
		}
		cfg := RunConfig{Workers: 1, Width: 3, Rounds: 1, MaxIter: 1,
			NTasks: 1, RunHash: 1, TargetWork: 1}
		WriteMessage(bw, &Message{Type: MsgWelcome, Welcome: &cfg})
		bw.Flush()
		ReadMessage(c) // Ready
		c.Close()      // coordinator dies
	}()
	cl, err := Dial(l.Addr().String(), DialOptions{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ready(1, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for cl.HeartbeatErr() == nil {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat failure never surfaced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The heartbeat tore the connection down: the next exchange errors
	// immediately instead of wedging until the response timeout.
	if _, _, err := cl.NextTask(); err == nil {
		t.Error("task pull succeeded over a dead connection")
	}
}

// TestDialRejectsNonCoordinator: dialing something that does not speak the
// protocol fails cleanly.
func TestDialRejectsNonCoordinator(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
		c.Close()
	}()
	if _, err := Dial(l.Addr().String(), DialOptions{Timeout: time.Second}); err == nil {
		t.Fatal("dial accepted a non-coordinator peer")
	}
}

// TestClientBatchSizeValidation: mismatched buffer sizes are caught on the
// client before anything hits the wire.
func TestClientBatchSizeValidation(t *testing.T) {
	b := newFakeBackend(1, 3, 2)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: time.Second})
	cl, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ready(b.cfg.RunHash, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.GetMulti([]int{0}, make([]float64, 5)); err == nil {
		t.Error("GetMulti accepted a mis-sized buffer")
	}
	if err := cl.PutMulti([]int{0}, make([]float64, 5)); err == nil {
		t.Error("PutMulti accepted a mis-sized buffer")
	}
	if err := runWorkerLoopOn(cl); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestServeGetOutOfRangeKillsConn: a worker asking for elements outside the
// array gets an error and its rank is failed — the coordinator never
// tolerates a peer it cannot trust.
func TestServeGetOutOfRangeKillsConn(t *testing.T) {
	b := newFakeBackend(2, 3, 2)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: time.Second})
	cl, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ready(b.cfg.RunHash, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.GetMulti([]int{99}, make([]float64, 3)); err == nil {
		t.Fatal("out-of-range get succeeded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		b.mu.Lock()
		failed := b.failed[0]
		b.mu.Unlock()
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("misbehaving worker's rank was never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestServeSlowBackendDoesNotKillWorker: backend work between a request read
// and its response write (a commit waiting out a checkpoint capture, a slow
// shard fetch) must not burn the worker's liveness deadline — the response
// write gets its own fresh deadline, so a healthy worker survives a backend
// stall longer than DeadAfter.
func TestServeSlowBackendDoesNotKillWorker(t *testing.T) {
	b := newFakeBackend(1, 3, 1)
	b.slowGet = 600 * time.Millisecond
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 250 * time.Millisecond})
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatalf("worker failed across a slow backend call: %v", err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed[0] {
		t.Fatal("healthy worker was failed because the backend was slow")
	}
	if len(b.committed) != 1 {
		t.Fatalf("%d tasks committed, want 1", len(b.committed))
	}
}

// TestServeStalledReaderWriteBounded: a worker that requests a response far
// larger than the socket buffers and then never drains them must be declared
// dead within the write deadline — the coordinator's send path can never
// wedge on a stalled peer.
func TestServeStalledReaderWriteBounded(t *testing.T) {
	const nTasks, width = 4, 3
	b := newFakeBackend(2, width, nTasks)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: 300 * time.Millisecond})
	conn, bw := rawWorker(t, addr, b.cfg.RunHash)
	defer conn.Close()
	// A get batch whose response (1<<18 elements × width × 8 bytes ≈ 6 MiB)
	// cannot fit any default socket buffer: the coordinator's write must
	// block, then trip its deadline.
	idx := make([]uint64, 1<<18)
	if err := WriteMessage(bw, &Message{Type: MsgGet, Indices: idx}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	// Never read a byte back. The rank must be failed in bounded time.
	expectRankFailed(t, b, 0)
	// The run still completes on a well-behaved worker.
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}
