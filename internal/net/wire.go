// Package net is the TCP runtime that turns the repo's simulated deployment
// into an executable one: a length-prefixed binary wire protocol carrying
// Dtree scheduler traffic (task pull, completion, requeue-on-death) and PGAS
// shard traffic (stage-input fetch, result write), plus the coordinator that
// listens, assigns ranks, detects dead workers, and drives the run state owned
// by internal/core. The message set is what a rank needs of its backend —
// pull, done, get, put — plus handshake, heartbeat, and error.
//
// The goroutine runtime remains the reference implementation. Because every
// task is a pure function of the frozen stage input (see internal/core), the
// TCP runtime reproduces the in-process catalog byte-for-byte — the
// differential oracle the root-level distributed tests enforce, including
// across worker-process kills and checkpoint resumes.
//
// Wire format, little-endian throughout. Every frame is
//
//	magic "CELW" | u8 version | u8 type | u32 payload length | u32 crc | payload
//
// where crc is CRC-32C (Castagnoli) over version, type, length, and payload.
// The checksum turns in-flight corruption — a flipped bit in a float payload
// would otherwise silently poison a PGAS shard and diverge the catalog — into
// a loud, connection-fatal decode error.
//
// The reader is hardened the same way the CELK2 checkpoint reader is:
// implausible lengths and counts error out before any large allocation, and
// buffers grow with data actually read, so a malformed or hostile frame can
// never OOM the process. Non-finite parameter values are rejected at the
// decode boundary — NaN can never cross the wire into a PGAS shard.
package net

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// wireMagic identifies a Celeste wire frame ("CELW").
var wireMagic = [4]byte{'C', 'E', 'L', 'W'}

// ProtocolVersion is the wire protocol version spoken by this build. Version
// negotiation is strict equality: a frame header carrying any other version
// is refused before its payload is interpreted. Version 2 added the elastic
// membership traffic (Join/Leave); version 3 added the per-frame CRC-32C;
// version 4 made the task pull one blocking, stealing request (MsgWait is its
// keep-alive, not a poll), took the rank out of the Welcome, let a Shutdown
// answer a Hello, and dropped the steal and snapshot messages; version 5
// dropped Join and Leave: the coordinator decides how a worker is admitted,
// and a worker that departs simply disconnects; version 6 dropped the
// Cyclades batch fraction from the Welcome: it is a constant of the method,
// not a run setting.
const ProtocolVersion = 6

// headerLen is the fixed frame header size:
// magic(4) + version(1) + type(1) + length(4) + crc(4).
const headerLen = 14

// crcTable is the Castagnoli polynomial table shared by both frame ends.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameCRC sums the integrity-protected span of one frame: the version,
// type, and length bytes of the header, then the payload. The magic is
// excluded (it is matched byte-for-byte anyway) and the checksum cannot
// cover itself.
func frameCRC(head []byte, payload []byte) uint32 {
	crc := crc32.Checksum(head[4:10], crcTable)
	return crc32.Update(crc, crcTable, payload)
}

// Message types. Direction is noted as w→c (worker to coordinator) or c→w.
const (
	MsgHello     byte = iota + 1 // w→c: open handshake
	MsgWelcome                   // c→w: run parameters
	MsgReady                     // w→c: worker's independently computed run hash
	MsgTaskReq                   // w→c: pull the next task; answered when there is one
	MsgTask                      // c→w: assigned global task index
	MsgWait                      // c→w: keep-alive for a pull still waiting; pull again at once
	MsgShutdown                  // c→w: run over (complete or aborted); exit
	MsgTaskDone                  // w→c: task committed with work stats
	MsgGet                       // w→c: fetch stage-input elements by index
	MsgParams                    // c→w: packed element values for a MsgGet
	MsgPut                       // w→c: write result elements into the live array
	MsgHeartbeat                 // w→c: liveness beacon, no response
	MsgError                     // either: fatal protocol or state error
	msgTypeEnd
)

// Shutdown reasons.
const (
	ShutdownComplete byte = iota // every task committed; catalog finalizing
	ShutdownAborted              // a checkpoint hook or fatal state aborted the run
)

// maxFramePayload bounds one frame's payload. Get/Put batches are the
// largest legitimate traffic; 64 MiB covers ~8M float64 parameters, far
// beyond any in-process run while keeping a hostile header cheap to refuse.
const maxFramePayload = 1 << 26

// maxBatchElems bounds the element count of one Get/Put batch.
const maxBatchElems = 1 << 20

// maxErrorText bounds an error message's byte length.
const maxErrorText = 1 << 12

// RunConfig is the coordinator's advertisement of everything a worker needs
// to reconstruct the run deterministically: the partition knob (TargetWork),
// the numerically relevant optimizer parameters, and the run hash the
// worker's own reconstruction must reproduce before it is served tasks.
type RunConfig struct {
	Workers    uint32 // expected worker count (PGAS/Dtree rank count)
	Width      uint32 // per-element float64 count of the parameter arrays
	Rounds     uint32 // coordinate-ascent sweeps per task
	MaxIter    uint32 // Newton iterations per source fit
	NTasks     uint64 // two-stage partition size
	RunHash    uint64 // core.RunHash over the run inputs
	Seed       uint64 // Cyclades sampling seed
	TargetWork float64
	GradTol    float64
}

// Message is the decoded form of one frame. Fields beyond Type are populated
// per type; unused fields are zero.
type Message struct {
	Type byte

	Welcome *RunConfig // MsgWelcome

	Hash uint64 // MsgReady

	Task  uint64    // MsgTask, MsgTaskDone
	Stats [3]uint64 // MsgTaskDone: fits, newton iters, visits

	Indices []uint64  // MsgGet, MsgPut
	Values  []float64 // MsgParams, MsgPut

	Reason byte   // MsgShutdown
	Text   string // MsgError
}

// enc is a little appending encoder.
type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// dec is a bounds-checked cursor over a frame payload.
type dec struct {
	b   []byte
	off int
}

var errShortPayload = errors.New("net: truncated frame payload")

func (d *dec) u8() (byte, error) {
	if d.off+1 > len(d.b) {
		return 0, errShortPayload
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *dec) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *dec) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *dec) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

// finiteF64 reads one float64 and rejects NaN/Inf: parameter payloads must
// never smuggle a non-finite value into a PGAS shard.
func (d *dec) finiteF64() (float64, error) {
	v, err := d.f64()
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errors.New("net: non-finite value in frame payload")
	}
	return v, nil
}

// floats reads count finite float64s, growing the buffer with data actually
// present rather than trusting the declared count.
func (d *dec) floats(count uint64) ([]float64, error) {
	out := make([]float64, 0, min(count, 1<<13))
	for k := uint64(0); k < count; k++ {
		v, err := d.finiteF64()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m *Message) error {
	var e enc
	switch m.Type {
	case MsgHello, MsgTaskReq, MsgWait, MsgHeartbeat:
		// empty payload
	case MsgWelcome:
		if m.Welcome == nil {
			return errors.New("net: MsgWelcome without a RunConfig")
		}
		c := m.Welcome
		e.u32(c.Workers)
		e.u32(c.Width)
		e.u32(c.Rounds)
		e.u32(c.MaxIter)
		e.u64(c.NTasks)
		e.u64(c.RunHash)
		e.u64(c.Seed)
		e.f64(c.TargetWork)
		e.f64(c.GradTol)
	case MsgReady:
		e.u64(m.Hash)
	case MsgTask:
		e.u64(m.Task)
	case MsgShutdown:
		e.u8(m.Reason)
	case MsgTaskDone:
		e.u64(m.Task)
		e.u64(m.Stats[0])
		e.u64(m.Stats[1])
		e.u64(m.Stats[2])
	case MsgGet:
		e.u32(uint32(len(m.Indices)))
		for _, i := range m.Indices {
			e.u64(i)
		}
	case MsgParams:
		e.u32(uint32(len(m.Values)))
		for _, v := range m.Values {
			e.f64(v)
		}
	case MsgPut:
		e.u32(uint32(len(m.Indices)))
		e.u32(uint32(len(m.Values)))
		for _, i := range m.Indices {
			e.u64(i)
		}
		for _, v := range m.Values {
			e.f64(v)
		}
	case MsgError:
		t := m.Text
		if len(t) > maxErrorText {
			t = t[:maxErrorText]
		}
		e.u32(uint32(len(t)))
		e.b = append(e.b, t...)
	default:
		return fmt.Errorf("net: cannot encode message type %d", m.Type)
	}
	if len(e.b) > maxFramePayload {
		return fmt.Errorf("net: frame payload %d bytes exceeds the %d cap", len(e.b), maxFramePayload)
	}
	var head [headerLen]byte
	copy(head[:4], wireMagic[:])
	head[4] = ProtocolVersion
	head[5] = m.Type
	binary.LittleEndian.PutUint32(head[6:], uint32(len(e.b)))
	binary.LittleEndian.PutUint32(head[10:], frameCRC(head[:], e.b))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(e.b)
	return err
}

// ErrBadVersion reports a frame whose header carries a protocol version this
// build does not speak.
var ErrBadVersion = errors.New("net: unsupported protocol version")

// ErrChecksum reports a frame whose CRC does not match its contents: the
// bytes were corrupted somewhere between the peer's encoder and this reader.
var ErrChecksum = errors.New("net: frame checksum mismatch")

// ReadMessage reads and decodes one frame. The header is validated (magic,
// version, known type, bounded length) before any payload allocation, the
// payload buffer grows with bytes actually read, and the CRC is verified
// before a single payload byte is interpreted.
func ReadMessage(r io.Reader) (*Message, error) {
	var head [headerLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	if [4]byte(head[:4]) != wireMagic {
		return nil, errors.New("net: bad magic; not a Celeste wire frame")
	}
	if head[4] != ProtocolVersion {
		return nil, fmt.Errorf("%w: frame speaks version %d, this build speaks %d",
			ErrBadVersion, head[4], ProtocolVersion)
	}
	typ := head[5]
	if typ == 0 || typ >= byte(msgTypeEnd) {
		return nil, fmt.Errorf("net: unknown message type %d", typ)
	}
	length := binary.LittleEndian.Uint32(head[6:])
	if length > maxFramePayload {
		return nil, fmt.Errorf("net: frame payload %d bytes exceeds the %d cap", length, maxFramePayload)
	}
	payload, err := readBounded(r, int(length))
	if err != nil {
		return nil, err
	}
	if want, got := binary.LittleEndian.Uint32(head[10:]), frameCRC(head[:], payload); want != got {
		return nil, fmt.Errorf("%w: frame type %d declares CRC %08x, contents sum to %08x",
			ErrChecksum, typ, want, got)
	}
	m, err := decodePayload(typ, payload)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// readBounded reads exactly n bytes, growing the buffer chunk by chunk so a
// frame header declaring a huge length backed by no data cannot force a huge
// allocation.
func readBounded(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(uint64(n), 1<<16))
	chunk := make([]byte, 1<<14)
	for len(buf) < n {
		c := chunk
		if rem := n - len(buf); rem < len(c) {
			c = c[:rem]
		}
		k, err := io.ReadFull(r, c)
		buf = append(buf, c[:k]...)
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodePayload interprets one frame payload. Every count is validated
// against protocol bounds, every float is checked finite, and trailing bytes
// are an error: a well-formed frame is consumed exactly.
func decodePayload(typ byte, payload []byte) (*Message, error) {
	m := &Message{Type: typ}
	d := &dec{b: payload}
	switch typ {
	case MsgHello, MsgTaskReq, MsgWait, MsgHeartbeat:
		// empty payload
	case MsgWelcome:
		var c RunConfig
		var err error
		for _, p := range []*uint32{&c.Workers, &c.Width, &c.Rounds, &c.MaxIter} {
			if *p, err = d.u32(); err != nil {
				return nil, err
			}
		}
		for _, p := range []*uint64{&c.NTasks, &c.RunHash, &c.Seed} {
			if *p, err = d.u64(); err != nil {
				return nil, err
			}
		}
		for _, p := range []*float64{&c.TargetWork, &c.GradTol} {
			if *p, err = d.finiteF64(); err != nil {
				return nil, err
			}
		}
		if err := c.validate(); err != nil {
			return nil, err
		}
		m.Welcome = &c
	case MsgReady:
		var err error
		if m.Hash, err = d.u64(); err != nil {
			return nil, err
		}
	case MsgTask:
		var err error
		if m.Task, err = d.u64(); err != nil {
			return nil, err
		}
	case MsgShutdown:
		var err error
		if m.Reason, err = d.u8(); err != nil {
			return nil, err
		}
		if m.Reason > ShutdownAborted {
			return nil, fmt.Errorf("net: unknown shutdown reason %d", m.Reason)
		}
	case MsgTaskDone:
		var err error
		if m.Task, err = d.u64(); err != nil {
			return nil, err
		}
		for i := range m.Stats {
			if m.Stats[i], err = d.u64(); err != nil {
				return nil, err
			}
		}
	case MsgGet:
		idx, err := d.indices()
		if err != nil {
			return nil, err
		}
		m.Indices = idx
	case MsgParams:
		count, err := d.u32()
		if err != nil {
			return nil, err
		}
		if count > maxFramePayload/8 {
			return nil, fmt.Errorf("net: params frame declares %d values", count)
		}
		if m.Values, err = d.floats(uint64(count)); err != nil {
			return nil, err
		}
	case MsgPut:
		nIdx, err := d.u32()
		if err != nil {
			return nil, err
		}
		nVals, err := d.u32()
		if err != nil {
			return nil, err
		}
		if nIdx == 0 || nIdx > maxBatchElems || nVals > maxFramePayload/8 {
			return nil, fmt.Errorf("net: put frame declares %d indices, %d values", nIdx, nVals)
		}
		if nVals%nIdx != 0 {
			return nil, fmt.Errorf("net: put frame values %d not a multiple of indices %d", nVals, nIdx)
		}
		m.Indices = make([]uint64, 0, min(uint64(nIdx), 1<<13))
		for k := uint32(0); k < nIdx; k++ {
			v, err := d.u64()
			if err != nil {
				return nil, err
			}
			m.Indices = append(m.Indices, v)
		}
		if m.Values, err = d.floats(uint64(nVals)); err != nil {
			return nil, err
		}
	case MsgError:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if n > maxErrorText {
			return nil, fmt.Errorf("net: error text %d bytes exceeds the %d cap", n, maxErrorText)
		}
		if d.off+int(n) > len(d.b) {
			return nil, errShortPayload
		}
		m.Text = string(d.b[d.off : d.off+int(n)])
		d.off += int(n)
	default:
		return nil, fmt.Errorf("net: unknown message type %d", typ)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("net: %d trailing bytes after message type %d", len(d.b)-d.off, typ)
	}
	return m, nil
}

// indices reads a u32-counted list of u64 element indices.
func (d *dec) indices() ([]uint64, error) {
	count, err := d.u32()
	if err != nil {
		return nil, err
	}
	if count == 0 || count > maxBatchElems {
		return nil, fmt.Errorf("net: batch of %d indices outside (0, %d]", count, maxBatchElems)
	}
	out := make([]uint64, 0, min(uint64(count), 1<<13))
	for k := uint32(0); k < count; k++ {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// validate applies protocol bounds to an advertised run configuration.
func (c *RunConfig) validate() error {
	switch {
	case c.Workers == 0 || c.Workers > 1<<20:
		return fmt.Errorf("net: welcome declares %d workers", c.Workers)
	case c.Width == 0 || c.Width > 1<<16:
		return fmt.Errorf("net: welcome declares element width %d", c.Width)
	case c.NTasks > 1<<24:
		return fmt.Errorf("net: welcome declares %d tasks", c.NTasks)
	case c.Rounds > 1<<20 || c.MaxIter > 1<<20:
		return fmt.Errorf("net: welcome declares rounds=%d maxiter=%d", c.Rounds, c.MaxIter)
	case c.TargetWork < 0 || c.GradTol < 0:
		return fmt.Errorf("net: welcome declares targetwork=%g gradtol=%g",
			c.TargetWork, c.GradTol)
	}
	return nil
}

// frameWriter pairs a buffered writer with its flush so every message lands
// on the wire as one write burst.
type frameWriter struct {
	bw *bufio.Writer
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{bw: bufio.NewWriter(w)} }

func (fw *frameWriter) send(m *Message) error {
	if err := WriteMessage(fw.bw, m); err != nil {
		return err
	}
	return fw.bw.Flush()
}
