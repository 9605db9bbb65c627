package net

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// welcomeBytes encodes a welcome frame and returns it for field surgery.
// Payload layout after the header: workers u32 | width u32 | rounds u32 |
// maxiter u32 | ntasks u64 | runhash u64 | seed u64 | targetwork f64 |
// gradtol f64.
func welcomeBytes(t *testing.T) []byte {
	return encoded(t, &Message{Type: MsgWelcome, Welcome: sampleWelcome()})
}

// TestWelcomeValidationBranches drives every bound of RunConfig.validate
// through the decoder. Offsets are payload-relative; the poked frame is
// resealed so the checksum passes and the semantic validation fires.
func TestWelcomeValidationBranches(t *testing.T) {
	pokeU32 := func(off int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[headerLen+off:], v) }
	}
	pokeU64 := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[headerLen+off:], v) }
	}
	cases := []struct {
		name string
		poke func([]byte)
		want string
	}{
		{"zero workers", pokeU32(0, 0), "workers"},
		{"absurd workers", pokeU32(0, 1<<21), "workers"},
		{"absurd width", pokeU32(4, 1<<17), "width"},
		{"absurd rounds", pokeU32(8, 1<<21), "rounds"},
		{"absurd maxiter", pokeU32(12, 1<<21), "rounds"},
		{"absurd ntasks", pokeU64(16, 1<<25), "tasks"},
		{"negative targetwork", pokeU64(40, 0x8000000000000001), "targetwork"},
		{"negative gradtol", pokeU64(48, 0x8000000000000001), "gradtol"},
	}
	for _, tc := range cases {
		b := welcomeBytes(t)
		tc.poke(b)
		_, err := ReadMessage(strings.NewReader(string(reseal(b))))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// rawWorker completes the handshake on a raw connection so tests can send
// arbitrary post-handshake frames.
func rawWorker(t *testing.T, addr string, hash uint64) (net.Conn, *bufio.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := WriteMessage(bw, &Message{Type: MsgHello}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if _, err := ReadMessage(conn); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(bw, &Message{Type: MsgReady, Hash: hash}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return conn, bw
}

// expectRankFailed waits until the backend records the rank as failed.
func expectRankFailed(t *testing.T, b *fakeBackend, rank int) {
	t.Helper()
	b.waitFor(t, fmt.Sprintf("rank %d to be failed", rank), func() bool { return b.failed[rank] })
}

// TestServeRejectsProtocolViolations: each way a worker can break protocol
// after the handshake gets an error reply (where possible) and a failed
// rank, and the run still completes on a well-behaved worker.
func TestServeRejectsProtocolViolations(t *testing.T) {
	cases := []struct {
		name string
		send *Message
	}{
		// Width is 3, so one index must carry exactly 3 values.
		{"put width mismatch", &Message{Type: MsgPut, Indices: []uint64{0}, Values: []float64{1, 2, 3, 4, 5, 6}}},
		{"put out of range", &Message{Type: MsgPut, Indices: []uint64{99}, Values: []float64{1, 2, 3}}},
		{"unexpected type", &Message{Type: MsgTask, Task: 0}},
		{"worker-sent error", &Message{Type: MsgError, Text: "worker exploding"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newFakeBackend(2, 3, 2)
			addr, join := startServe(t, b, ServeOptions{DeadAfter: 2 * time.Second})
			conn, bw := rawWorker(t, addr, b.cfg.RunHash)
			defer conn.Close()
			if err := WriteMessage(bw, tc.send); err != nil {
				t.Fatal(err)
			}
			bw.Flush()
			expectRankFailed(t, b, 0)
			if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
				t.Fatalf("surviving worker: %v", err)
			}
			if err := join(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServeHelloRequired: a peer whose first frame is not Hello is refused
// without ever being assigned a rank.
func TestServeHelloRequired(t *testing.T) {
	b := newFakeBackend(1, 3, 1)
	addr, join := startServe(t, b, ServeOptions{DeadAfter: time.Second})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := WriteMessage(bw, &Message{Type: MsgTaskReq}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	m, err := ReadMessage(conn)
	if err != nil || m.Type != MsgError {
		t.Fatalf("got %v / %v, want an error reply", m, err)
	}
	if err := runWorkerLoop(t, addr, b.cfg.RunHash); err != nil {
		t.Fatal(err)
	}
	if err := join(); err != nil {
		t.Fatal(err)
	}
}

// TestDialTimeout: dialing a listener that never answers the handshake
// returns within the dial timeout rather than hanging.
func TestDialTimeout(t *testing.T) {
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
		defer c.Close()
		time.Sleep(2 * time.Second) // accept, say nothing
	}()
	start := time.Now()
	if _, err := Dial(l.Addr().String(), DialOptions{Timeout: 150 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded against a mute listener")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("dial took %v, want the 150ms handshake timeout to apply", elapsed)
	}
}

// TestResponseTimeout: a coordinator that wedges after the handshake (socket
// open, nothing sent) must error the worker out within the response timeout
// instead of hanging it forever — the worker-side mirror of DeadAfter.
func TestResponseTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cfg := sampleWelcome()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		bw := bufio.NewWriter(c)
		if _, err := ReadMessage(c); err != nil { // Hello
			return
		}
		WriteMessage(bw, &Message{Type: MsgWelcome, Welcome: cfg})
		bw.Flush()
		ReadMessage(c)              // Ready
		time.Sleep(5 * time.Second) // wedge: never answer the pull
	}()
	cl, err := Dial(l.Addr().String(), DialOptions{ResponseTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ready(cfg.RunHash, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := cl.NextTask(); err == nil {
		t.Fatal("pull against a wedged coordinator succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pull took %v to fail, want the response timeout to apply", elapsed)
	}
}
