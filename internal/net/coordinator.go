// The coordinator side of the TCP runtime: accept worker connections, assign
// ranks, enforce the handshake (protocol version, independently recomputed
// run hash), serve scheduler and PGAS traffic, and detect dead workers so
// their in-flight tasks requeue — the paper's Section IV-B recovery story
// with a real wire in the middle.
package net

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// NextStatus is the backend's answer to a task pull.
type NextStatus int

const (
	// NextTask hands the rank one task.
	NextTask NextStatus = iota
	// NextWait is the coordinator's own answer, never a backend's: the pull
	// is still waiting when the hold expires, and the worker is told MsgWait
	// — a keep-alive it answers by pulling again at once.
	NextWait
	// NextShutdown means the run is complete (or the rank is retired); the
	// worker should exit cleanly.
	NextShutdown
	// NextAbort means the run was aborted; the worker should exit.
	NextAbort
)

// Backend is the run state a coordinator serves: task scheduling, the PGAS
// arrays, and commit bookkeeping. internal/core implements it once, as the
// state machine of every run — goroutine ranks call the same methods the
// coordinator does — which is what makes in-process and TCP runs
// byte-identical: they share everything but the link.
type Backend interface {
	// Welcome returns the run parameters advertised to connecting workers.
	Welcome() RunConfig
	// Next asks for rank's next task (a global task index), stealing from
	// the most-loaded live rank when the rank's own supply is dry. It does
	// not return until it has a task or a terminal answer: a rank with
	// nothing to do yet waits inside the call, and Commit, Fail and the
	// run's end wake it.
	Next(rank int) (task int, status NextStatus)
	// Commit records a completed task and its work stats. It must be
	// idempotent: a task already committed is ignored.
	Commit(rank, task int, stats [3]uint64)
	// Fail retires a rank whose connection ended, requeueing its in-flight
	// work. Idempotent.
	Fail(rank int)
	// Join mints a fresh rank past the static complement for a verified
	// worker the coordinator has no free static rank for (the complement is
	// full, or the connect grace sealed it). The new rank joins the
	// schedule and owns no shard of the parameter arrays; its Get and Put
	// go to the same arrays as every other rank's. ok=false refuses the
	// join (run already terminal); the coordinator then pulls once with
	// rank -1 to learn how the run ended.
	Join() (rank int, ok bool)
	// Get copies stage-input elements into out (len(idx)*width values).
	Get(rank int, idx []uint64, out []float64) error
	// Put writes result elements into the live array.
	Put(rank int, idx []uint64, vals []float64) error
	// Done is closed when the run reaches a terminal state (complete,
	// aborted, or stranded); Serve drains and returns after it closes.
	Done() <-chan struct{}
}

// ServeOptions tunes the coordinator's failure detection.
type ServeOptions struct {
	// DeadAfter is how long a worker may stay silent (no frame, not even a
	// heartbeat) before it is declared dead and its tasks requeue. A waiting
	// pull is held for a quarter of it before the keep-alive (see serveRank),
	// so workers need a ResponseTimeout above DeadAfter/4. Default 10s.
	DeadAfter time.Duration
	// ConnectGrace is how long the coordinator waits for the full worker
	// complement to connect before failing the absent ranks, so their
	// statically allocated task pools requeue to the ranks that did show
	// up. Default 30s.
	ConnectGrace time.Duration
}

func (o *ServeOptions) defaults() {
	if o.DeadAfter == 0 {
		o.DeadAfter = 10 * time.Second
	}
	if o.ConnectGrace == 0 {
		o.ConnectGrace = 30 * time.Second
	}
}

// Serve runs the coordinator over l until the backend reaches a terminal
// state, then drains the connections and returns. Worker deaths (connection
// errors, heartbeat silence) are reported to the backend via Fail; Serve
// itself returns an error only for listener failures.
func Serve(l net.Listener, b Backend, opts ServeOptions) error {
	opts.defaults()
	cfg := b.Welcome()
	s := &coordinator{
		b:       b,
		cfg:     cfg,
		opts:    opts,
		conns:   make(map[net.Conn]struct{}),
		workers: int(cfg.Workers),
	}

	var wg sync.WaitGroup
	acceptDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		acceptDone <- s.acceptLoop(l)
	}()

	// Fail ranks that never connect, so their static pools requeue.
	grace := time.AfterFunc(opts.ConnectGrace, s.failAbsentRanks)
	defer grace.Stop()

	<-b.Done()
	l.Close() // stops the accept loop
	// Let live connections drain gracefully: each worker receives its
	// Shutdown on its next pull. A SIGKILLed worker's connection errors out
	// immediately; a hung one trips its read deadline within DeadAfter.
	drained := make(chan struct{})
	go func() {
		s.handlers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(opts.DeadAfter + 2*time.Second):
		s.closeAll()
		<-drained
	}
	wg.Wait()
	if err := <-acceptDone; err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// coordinator is the shared state of one Serve call.
type coordinator struct {
	b    Backend
	cfg  RunConfig
	opts ServeOptions

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	nextRank int
	workers  int
	sealed   bool // no further rank assignment (grace expired)

	handlers sync.WaitGroup
}

func (s *coordinator) acceptLoop(l net.Listener) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.handlers.Add(1)
		go func() {
			defer s.handlers.Done()
			s.handle(c)
		}()
	}
}

// failAbsentRanks retires every rank that has not connected by the end of
// the grace period. Fail is idempotent and a completed run ignores it, so
// firing late is harmless.
func (s *coordinator) failAbsentRanks() {
	s.mu.Lock()
	from := s.nextRank
	s.sealed = true
	s.mu.Unlock()
	for r := from; r < s.workers; r++ {
		s.b.Fail(r)
	}
}

func (s *coordinator) closeAll() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// assignRank hands out the next free static rank, or -1 when the complement
// is full or the connect grace has sealed it.
func (s *coordinator) assignRank() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed || s.nextRank >= s.workers {
		return -1
	}
	r := s.nextRank
	s.nextRank++
	return r
}

// sendError best-effort delivers a fatal error to the peer.
func sendError(fw *frameWriter, text string) {
	_ = fw.send(&Message{Type: MsgError, Text: text})
}

// handle runs one worker connection: handshake, then the serve loop. A rank
// exists only once the handshake has verified, so a refused or abandoned
// handshake leaves the run untouched; any exit after that which is not a
// clean shutdown fails the rank.
func (s *coordinator) handle(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	fw := newFrameWriter(c)

	// Handshake: Hello → Welcome(run config) → Ready(worker's hash).
	// The handshake deadline is the connect grace, not DeadAfter: between
	// Welcome and Ready the worker regenerates the whole run (partition +
	// run hash over every survey pixel), which legitimately takes far
	// longer than a heartbeat period on large surveys. Deadlines are set
	// with SetDeadline so writes are bounded too — a stalled peer with a
	// full socket buffer must not wedge this handler forever.
	c.SetDeadline(time.Now().Add(s.opts.ConnectGrace))
	m, err := ReadMessage(c)
	if err != nil {
		if errors.Is(err, ErrBadVersion) {
			sendError(fw, err.Error())
		}
		return
	}
	if m.Type != MsgHello {
		sendError(fw, "net: expected Hello to open the handshake")
		return
	}
	cfg := s.cfg
	if err := fw.send(&Message{Type: MsgWelcome, Welcome: &cfg}); err != nil {
		return
	}
	c.SetDeadline(time.Now().Add(s.opts.ConnectGrace))
	m, err = ReadMessage(c)
	if err != nil || m.Type != MsgReady {
		return
	}
	if m.Hash != s.cfg.RunHash {
		sendError(fw, fmt.Sprintf("net: run hash mismatch: worker computed %016x, run is %016x",
			m.Hash, s.cfg.RunHash))
		return
	}
	// Admission comes last, and the coordinator decides it: a free static
	// rank while the connect grace has not sealed the complement, otherwise a
	// fresh rank minted by the backend, which the joiner fills by stealing. A
	// static rank taken before the hash verified would be failed — dead for
	// the rest of the run — by every mis-pointed worker that dialed in, and
	// Backend.Join permanently grows the rank space (the scheduler and the
	// rank table), so a flapping mismatched worker would grow the run
	// without bound and count as both a joined and a failed rank.
	rank := s.assignRank()
	if rank < 0 {
		var ok bool
		if rank, ok = s.b.Join(); !ok {
			s.shutdownLateJoiner(c, fw)
			return
		}
	}

	if err := s.serveRank(c, fw, rank); err != nil {
		// The worker died, hung past its heartbeat deadline, or broke
		// protocol: requeue everything it held. The commit path is
		// idempotent, so even a task it had already reported is safe to
		// re-execute elsewhere.
		s.b.Fail(rank)
	}
}

// shutdownLateJoiner ends the session of a verified joiner the backend
// refused because the run went terminal while the worker was backing off or
// hashing. That is a shutdown, not an error — a worker told "error" burns its
// rejoin budget against a finished run and exits non-zero. How the run ended
// is learned the way it is for every rank, from a pull's status: no rank was
// minted, and a terminal backend hands nobody a task. The reply answers the
// joiner's first request, so the close cannot race an unsolicited frame.
func (s *coordinator) shutdownLateJoiner(c net.Conn, fw *frameWriter) {
	reason := ShutdownComplete
	if _, status := s.b.Next(-1); status == NextAbort {
		reason = ShutdownAborted
	}
	for {
		c.SetDeadline(time.Now().Add(s.opts.DeadAfter))
		m, err := ReadMessage(c)
		if err != nil {
			return
		}
		if m.Type != MsgHeartbeat {
			_ = fw.send(&Message{Type: MsgShutdown, Reason: reason})
			return
		}
	}
}

// serveRank is the per-worker message loop. It returns nil after a clean
// shutdown and an error for every death-like exit.
func (s *coordinator) serveRank(c net.Conn, fw *frameWriter, rank int) error {
	width := int(s.cfg.Width)
	// Every response write gets its own fresh deadline. Reusing the read
	// deadline is wrong in both directions: backend work between read and
	// write (a commit waiting out a checkpoint capture, a slow shard fetch) can
	// burn through it and spuriously kill a healthy worker, while a worker
	// that stops draining its socket mid-response must still die within
	// DeadAfter rather than wedging this handler on a full send buffer.
	send := func(m *Message) error {
		c.SetWriteDeadline(time.Now().Add(s.opts.DeadAfter))
		return fw.send(m)
	}
	sendErr := func(text string) { _ = send(&Message{Type: MsgError, Text: text}) }
	// A pull waits inside Backend.Next for as long as the rank has nothing to
	// do, and while this handler waits with it nobody reads the worker's
	// heartbeats or answers its ResponseTimeout. So the wait is held for at
	// most a quarter of DeadAfter: then the worker is told MsgWait, its next
	// frame — the same pull again, at once — is read under a fresh liveness
	// deadline, and the backend call, still parked, is picked up where it was.
	// A worker that died mid-wait is found out by that read, and whatever
	// task the parked call was next handed requeues with the rank.
	type pulled struct {
		task   int
		status NextStatus
	}
	var parked chan pulled
	for {
		c.SetReadDeadline(time.Now().Add(s.opts.DeadAfter))
		m, err := ReadMessage(c)
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgHeartbeat:
			// Liveness only; reading it already refreshed the deadline.
		case MsgTaskReq:
			if parked == nil {
				parked = make(chan pulled, 1)
				go func(answer chan<- pulled) {
					task, status := s.b.Next(rank)
					answer <- pulled{task, status}
				}(parked)
			}
			got := pulled{status: NextWait}
			select {
			case got = <-parked:
				parked = nil
			case <-time.After(s.opts.DeadAfter / 4):
			}
			var resp Message
			switch got.status {
			case NextTask:
				resp = Message{Type: MsgTask, Task: uint64(got.task)}
			case NextWait:
				resp = Message{Type: MsgWait}
			case NextShutdown:
				resp = Message{Type: MsgShutdown, Reason: ShutdownComplete}
			case NextAbort:
				resp = Message{Type: MsgShutdown, Reason: ShutdownAborted}
			}
			if err := send(&resp); err != nil {
				return err
			}
			if got.status == NextShutdown || got.status == NextAbort {
				return nil
			}
		case MsgTaskDone:
			s.b.Commit(rank, int(m.Task), m.Stats)
		case MsgGet:
			// The response must fit one frame; refuse a batch that could not
			// before allocating for it.
			if len(m.Indices)*width > maxFramePayload/8 {
				err := fmt.Errorf("net: get batch of %d elements at width %d exceeds one frame",
					len(m.Indices), width)
				sendErr(err.Error())
				return err
			}
			out := make([]float64, len(m.Indices)*width)
			if err := s.b.Get(rank, m.Indices, out); err != nil {
				sendErr(err.Error())
				return err
			}
			if err := send(&Message{Type: MsgParams, Values: out}); err != nil {
				return err
			}
		case MsgPut:
			if len(m.Values) != len(m.Indices)*width {
				err := fmt.Errorf("net: put carries %d values for %d elements of width %d",
					len(m.Values), len(m.Indices), width)
				sendErr(err.Error())
				return err
			}
			if err := s.b.Put(rank, m.Indices, m.Values); err != nil {
				sendErr(err.Error())
				return err
			}
		case MsgError:
			return errors.New("net: worker reported: " + m.Text)
		default:
			err := fmt.Errorf("net: unexpected message type %d from rank %d", m.Type, rank)
			sendErr(err.Error())
			return err
		}
	}
}

// Dismiss is what remains to be served of a run that is over: every dial
// accepted on l is answered with Shutdown(reason), which the worker's Dial
// surfaces as ErrComplete or ErrAborted. A supervisor that shares l with its
// coordinator incarnations calls it once the last incarnation has exited, with
// a wait that returns when its workers have: a worker that was between rejoin
// attempts when the run ended otherwise dials into a backlog nobody accepts
// from, and burns a dial timeout per attempt until its rejoin window closes.
// Dismiss closes l when wait returns.
func Dismiss(l net.Listener, reason byte, wait func()) {
	var opts ServeOptions
	opts.defaults()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				// Read the Hello first: closing over unread bytes resets the
				// connection, and the reset can overtake the Shutdown.
				c.SetDeadline(time.Now().Add(opts.DeadAfter))
				if _, err := ReadMessage(c); err == nil {
					_ = newFrameWriter(c).send(&Message{Type: MsgShutdown, Reason: reason})
				}
			}()
		}
	}()
	wait()
	l.Close()
}

// Transport carries the coordinator's listening socket and the run
// parameters that only the caller knows into core.RunOptions. Setting it on
// a run makes its ranks cfg.Processes real worker processes pulling tasks
// over TCP instead of goroutines in the coordinator's process.
type Transport struct {
	// Listener accepts worker connections; the run closes it on completion.
	Listener net.Listener
	// TargetWork is the partition knob advertised to workers so they can
	// regenerate the identical two-stage task list.
	TargetWork float64
	// DeadAfter and ConnectGrace tune failure detection (see ServeOptions).
	DeadAfter    time.Duration
	ConnectGrace time.Duration
	// RejoinGrace, when positive, holds a run open for that long after its
	// last rank dies with tasks outstanding, instead of declaring the work
	// stranded immediately: a transient total partition (every link reset at
	// once) is survivable when workers carry a rejoin budget, because the
	// listener stays open and the first re-enrollment rescues the
	// run. If the window expires with every rank still dead, the run fails
	// with the stranded diagnostic as before — bounded, never a hang. Zero
	// strands immediately.
	RejoinGrace time.Duration
}
