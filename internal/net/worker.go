// The worker side of the TCP runtime: a client that dials the coordinator,
// proves it reconstructed the same run (hash handshake), then drives the
// standard rank work loop over the wire — task pulls in front of the remote
// Dtree scheduler, batched Get/Put against the remote PGAS shards, and a
// heartbeat so a hung process is eventually declared dead and its work
// requeued.
package net

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"celeste/internal/pgas"
)

// ErrAborted is returned by NextTask, and by a Dial that lands after the run
// ended, when the coordinator ends the session because the run was aborted
// (e.g. a checkpoint hook failed) rather than completed — a worker supervisor
// must not read the exit as success.
var ErrAborted = errors.New("net: run aborted by coordinator")

// ErrComplete is returned by a Dial that lands after the run completed: the
// handshake was answered with a Shutdown instead of a Welcome. There is
// nothing left to do, and the worker should exit cleanly.
var ErrComplete = errors.New("net: run already complete")

// Client is one worker's connection to the coordinator. Its Get/Put methods
// implement pgas.Getter and pgas.Putter, so core.ExecTask runs against it
// exactly as it runs against the in-memory arrays. Request/response exchanges
// are serialized (one in flight); the heartbeat goroutine interleaves frames
// under the write lock.
type Client struct {
	conn net.Conn
	fw   *frameWriter

	welcome RunConfig

	reqMu sync.Mutex // one request/response exchange at a time
	wmu   sync.Mutex // frame-level write interleaving (requests vs heartbeats)

	hbStop    chan struct{}
	closeOnce sync.Once

	hbMu  sync.Mutex
	hbErr error // why the heartbeat loop died, if it died on its own

	respTimeout time.Duration
}

var (
	_ pgas.Getter = (*Client)(nil)
	_ pgas.Putter = (*Client)(nil)
)

// DialOptions tunes a worker connection.
type DialOptions struct {
	// Timeout bounds the TCP dial and each handshake read. Default 10s.
	Timeout time.Duration
	// ResponseTimeout bounds each request's wait for its response, so a
	// wedged coordinator (or a partition that leaves the socket open)
	// errors the worker out instead of hanging it forever — the mirror of
	// the coordinator's DeadAfter. Responses are served promptly even
	// during checkpoints, so the default 60s is generous. Default 60s.
	ResponseTimeout time.Duration
}

func (o *DialOptions) defaults() {
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Second
	}
	if o.ResponseTimeout == 0 {
		o.ResponseTimeout = 60 * time.Second
	}
}

// Dial connects to a coordinator and completes the opening half of the
// handshake: Hello out, Welcome (the run parameters) back. The caller must
// reconstruct the run from the welcome, verify the hash, and call Ready
// before pulling tasks; the coordinator then decides which rank it serves. A
// run that is already over answers with a Shutdown instead, surfaced as
// ErrComplete or ErrAborted.
func Dial(addr string, opts DialOptions) (*Client, error) {
	opts.defaults()
	conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c := &Client{
		conn:        conn,
		fw:          newFrameWriter(conn),
		hbStop:      make(chan struct{}),
		respTimeout: opts.ResponseTimeout,
	}
	conn.SetDeadline(time.Now().Add(opts.Timeout))
	if err := c.fw.send(&Message{Type: MsgHello}); err != nil {
		conn.Close()
		return nil, err
	}
	m, err := c.read()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if m.Type != MsgWelcome {
		conn.Close()
		if m.Type == MsgShutdown {
			if m.Reason == ShutdownAborted {
				return nil, ErrAborted
			}
			return nil, ErrComplete
		}
		return nil, fmt.Errorf("net: expected Welcome, got message type %d", m.Type)
	}
	conn.SetDeadline(time.Time{})
	c.welcome = *m.Welcome
	return c, nil
}

// Welcome returns the coordinator's advertised run parameters.
func (c *Client) Welcome() RunConfig { return c.welcome }

// Ready sends the worker's independently computed run hash (the coordinator
// refuses a mismatch) and starts the heartbeat. heartbeatEvery must be well
// under the coordinator's DeadAfter; 0 selects 500ms.
func (c *Client) Ready(hash uint64, heartbeatEvery time.Duration) error {
	if heartbeatEvery == 0 {
		heartbeatEvery = 500 * time.Millisecond
	}
	if err := c.send(&Message{Type: MsgReady, Hash: hash}); err != nil {
		return err
	}
	go c.heartbeatLoop(heartbeatEvery)
	return nil
}

// Close tears the connection down and stops the heartbeat. Safe to call
// concurrently and more than once (the run loop's deferred teardown may race
// a supervisor's Close).
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.hbStop) })
	return c.conn.Close()
}

func (c *Client) heartbeatLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			if err := c.send(&Message{Type: MsgHeartbeat}); err != nil {
				select {
				case <-c.hbStop:
					// The send lost a race with Close; not a failure.
					return
				default:
				}
				// A dead heartbeat means the coordinator will declare this
				// rank dead and requeue its tasks — computing on is pure
				// waste. Record why and kill the connection so the work
				// loop's next exchange errors out promptly; the worker
				// supervisor can then rejoin or abort.
				c.hbMu.Lock()
				c.hbErr = err
				c.hbMu.Unlock()
				c.conn.Close()
				return
			}
		}
	}
}

// HeartbeatErr reports the error that killed the heartbeat loop, or nil if
// the heartbeat is healthy (or was stopped by Close). A non-nil value means
// the coordinator has likely already requeued this rank's work.
func (c *Client) HeartbeatErr() error {
	c.hbMu.Lock()
	defer c.hbMu.Unlock()
	return c.hbErr
}

// send writes one frame under the write lock, bounded by the response
// timeout so a coordinator that stops draining its socket cannot wedge the
// worker in a write.
func (c *Client) send(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.respTimeout))
	return c.fw.send(m)
}

// read decodes one frame; a MsgError response is surfaced as a Go error.
func (c *Client) read() (*Message, error) {
	m, err := ReadMessage(c.conn)
	if err != nil {
		return nil, err
	}
	if m.Type == MsgError {
		return nil, errors.New("net: coordinator reported: " + m.Text)
	}
	return m, nil
}

// roundTrip sends a request and reads its single response, bounded by the
// response timeout.
func (c *Client) roundTrip(req *Message) (*Message, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if err := c.send(req); err != nil {
		return nil, err
	}
	c.conn.SetReadDeadline(time.Now().Add(c.respTimeout))
	defer c.conn.SetReadDeadline(time.Time{})
	return c.read()
}

// NextTask pulls the next global task index. The coordinator answers when
// there is one — stolen from a loaded rank if this rank's own supply is dry —
// or when the run is over; a Wait in between is only its keep-alive for a
// pull still waiting, answered by pulling again at once. ok=false with a nil
// error means the run completed and the worker should exit cleanly; an
// aborted run surfaces as ErrAborted so supervisors can tell the two exits
// apart.
func (c *Client) NextTask() (task int, ok bool, err error) {
	for {
		m, err := c.roundTrip(&Message{Type: MsgTaskReq})
		if err != nil {
			return 0, false, err
		}
		switch m.Type {
		case MsgTask:
			if m.Task >= c.welcome.NTasks {
				return 0, false, fmt.Errorf("net: coordinator assigned task %d of %d", m.Task, c.welcome.NTasks)
			}
			return int(m.Task), true, nil
		case MsgWait:
			// keep-alive: the pull is still waiting over there
		case MsgShutdown:
			if m.Reason == ShutdownAborted {
				return 0, false, ErrAborted
			}
			return 0, false, nil
		default:
			return 0, false, fmt.Errorf("net: unexpected reply type %d to a task pull", m.Type)
		}
	}
}

// TaskDone reports a committed task with its work stats (fits, Newton
// iterations, pixel visits).
func (c *Client) TaskDone(task int, stats [3]uint64) error {
	// Fire-and-forget: frames on one connection are processed in order, so
	// the commit lands after every Put the task issued.
	return c.send(&Message{Type: MsgTaskDone, Task: uint64(task), Stats: stats})
}

// GetMulti implements pgas.Getter against the coordinator's frozen
// stage-input array: one round trip fetches the whole batch.
func (c *Client) GetMulti(idx []int, out []float64) error {
	if len(out) != len(idx)*int(c.welcome.Width) {
		return fmt.Errorf("net: GetMulti buffer holds %d values for %d elements of width %d",
			len(out), len(idx), c.welcome.Width)
	}
	req := &Message{Type: MsgGet, Indices: toU64(idx)}
	m, err := c.roundTrip(req)
	if err != nil {
		return err
	}
	if m.Type != MsgParams {
		return fmt.Errorf("net: unexpected reply type %d to a get", m.Type)
	}
	if len(m.Values) != len(out) {
		return fmt.Errorf("net: get returned %d values, want %d", len(m.Values), len(out))
	}
	copy(out, m.Values)
	return nil
}

// PutMulti implements pgas.Putter against the coordinator's live array.
func (c *Client) PutMulti(idx []int, vals []float64) error {
	if len(vals) != len(idx)*int(c.welcome.Width) {
		return fmt.Errorf("net: PutMulti holds %d values for %d elements of width %d",
			len(vals), len(idx), c.welcome.Width)
	}
	return c.send(&Message{Type: MsgPut, Indices: toU64(idx), Values: vals})
}

func toU64(idx []int) []uint64 {
	out := make([]uint64, len(idx))
	for k, i := range idx {
		out[k] = uint64(i)
	}
	return out
}
