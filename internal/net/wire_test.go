package net

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleWelcome returns a representative run advertisement.
func sampleWelcome() *RunConfig {
	return &RunConfig{
		Workers: 4, Width: 44, Rounds: 2, MaxIter: 40,
		NTasks: 17, RunHash: 0xdeadbeefcafe, Seed: 9,
		TargetWork: 1e5, GradTol: 1e-3,
	}
}

// sampleMessages covers every encodable message type.
func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgHello},
		{Type: MsgWelcome, Welcome: sampleWelcome()},
		{Type: MsgReady, Hash: 0xfeed},
		{Type: MsgTaskReq},
		{Type: MsgTask, Task: 11},
		{Type: MsgWait},
		{Type: MsgShutdown, Reason: ShutdownAborted},
		{Type: MsgTaskDone, Task: 3, Stats: [3]uint64{5, 60, 7000}},
		{Type: MsgGet, Indices: []uint64{0, 4, 2}},
		{Type: MsgParams, Values: []float64{1.5, -2.25, 0}},
		{Type: MsgPut, Indices: []uint64{1, 3}, Values: []float64{9, 8, 7, 6}},
		{Type: MsgHeartbeat},
		{Type: MsgError, Text: "something broke"},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("type %d: write: %v", m.Type, err)
		}
		got, err := ReadMessage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("type %d: read: %v", m.Type, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("type %d: round trip mismatch:\n sent %+v\n  got %+v", m.Type, m, got)
		}
	}
}

// The bytes of one encoded frame of every type in sampleMessages, at wire
// version pinVersion. A change to a payload layout bumps ProtocolVersion and
// re-pins both constants in the same change.
const (
	pinVersion      = 6
	pinFramesSHA256 = "a5185f881a82fefc7903cfa337936c713fae09b18ba8f39749dbc69e39e2a19a"
)

// TestFramesPinned fails when the encoding of any message type moves while
// ProtocolVersion does not, so a layout change cannot ship without the
// version bump that keeps a peer of the other build from reading one
// frame's fields as another's.
func TestFramesPinned(t *testing.T) {
	h := sha256.New()
	for _, m := range sampleMessages() {
		h.Write(encoded(t, m))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if ProtocolVersion != pinVersion {
		t.Fatalf("ProtocolVersion is %d but the frame pin is for version %d: set pinVersion = %d and pinFramesSHA256 = %q",
			ProtocolVersion, pinVersion, ProtocolVersion, got)
	}
	if got != pinFramesSHA256 {
		t.Fatalf("frame bytes moved at wire version %d: sha256 %s, pinned %s",
			pinVersion, got, pinFramesSHA256)
	}
}

// frame hand-builds a raw frame — correctly checksummed — for corruption
// tests, so each case trips exactly the validation branch it targets.
func frame(version, typ byte, payload []byte) []byte {
	b := append([]byte(nil), wireMagic[:]...)
	b = append(b, version, typ)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = append(b, payload...)
	return reseal(b)
}

// reseal recomputes a frame's CRC in place after field surgery, so a patched
// frame exercises the decoder's semantic validation rather than the checksum.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[10:], frameCRC(b[:headerLen], b[headerLen:]))
	return b
}

func encoded(t *testing.T, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadMessageRejectsMalformedFrames(t *testing.T) {
	validWelcome := encoded(t, &Message{Type: MsgWelcome, Welcome: sampleWelcome()})
	nanParams := frame(ProtocolVersion, MsgParams, func() []byte {
		b := binary.LittleEndian.AppendUint32(nil, 1)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(math.NaN()))
	}())
	hugeLen := frame(ProtocolVersion, MsgGet, nil)
	binary.LittleEndian.PutUint32(hugeLen[6:], maxFramePayload+1)

	cases := []struct {
		name string
		data []byte
		want string // substring of the expected error
	}{
		{"empty", nil, "EOF"},
		{"truncated header", frame(ProtocolVersion, MsgTask, nil)[:7], "EOF"},
		{"bad magic", append([]byte("FITS"), frame(ProtocolVersion, MsgTask, nil)[4:]...), "bad magic"},
		{"bad version", frame(99, MsgTask, make([]byte, 8)), "version"},
		{"unknown type", frame(ProtocolVersion, 0, nil), "unknown message type"},
		{"type past end", frame(ProtocolVersion, byte(msgTypeEnd), nil), "unknown message type"},
		{"oversized length", hugeLen, "exceeds"},
		{"truncated body", encoded(t, &Message{Type: MsgTask, Task: 5})[:12], "EOF"},
		{"short payload", frame(ProtocolVersion, MsgTask, make([]byte, 4)), "truncated frame payload"},
		{"trailing bytes", frame(ProtocolVersion, MsgTask, make([]byte, 16)), "trailing bytes"},
		{"NaN params", nanParams, "non-finite"},
		{"welcome zero width", func() []byte {
			b := append([]byte(nil), validWelcome...)
			binary.LittleEndian.PutUint32(b[headerLen+4:], 0) // width field
			return reseal(b)
		}(), "width"},
		{"bit-flipped payload", func() []byte {
			b := append([]byte(nil), validWelcome...)
			b[headerLen+2] ^= 0x10 // corrupt without resealing
			return b
		}(), "checksum"},
		{"bit-flipped type", func() []byte {
			b := encoded(t, &Message{Type: MsgWait})
			b[5] ^= MsgWait ^ MsgHeartbeat // still a known type, but not the summed one
			return b
		}(), "checksum"},
		{"get zero indices", frame(ProtocolVersion, MsgGet,
			binary.LittleEndian.AppendUint32(nil, 0)), "indices"},
		{"get absurd count", frame(ProtocolVersion, MsgGet,
			binary.LittleEndian.AppendUint32(nil, maxBatchElems+1)), "indices"},
		{"put values not multiple", frame(ProtocolVersion, MsgPut, func() []byte {
			b := binary.LittleEndian.AppendUint32(nil, 2)
			b = binary.LittleEndian.AppendUint32(b, 3)
			return b
		}()), "multiple"},
		{"shutdown bad reason", frame(ProtocolVersion, MsgShutdown, []byte{9}), "reason"},
		{"error text too long", frame(ProtocolVersion, MsgError,
			binary.LittleEndian.AppendUint32(nil, maxErrorText+1)), "cap"},
	}
	for _, tc := range cases {
		_, err := ReadMessage(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestReadMessageBadVersionIsErrBadVersion: the coordinator relies on the
// sentinel to tell a version mismatch from line noise.
func TestReadMessageBadVersion(t *testing.T) {
	// The previous protocol version: a v5 peer is refused, not half-understood.
	_, err := ReadMessage(bytes.NewReader(frame(ProtocolVersion-1, MsgHello, nil)))
	if !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), "version 5") {
		t.Fatalf("got %v", err)
	}
}

// TestWriteMessageRejects: unencodable messages fail loudly rather than
// producing garbage frames.
func TestWriteMessageRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgWelcome}); err == nil {
		t.Error("welcome without config accepted")
	}
	if err := WriteMessage(&buf, &Message{Type: 250}); err == nil {
		t.Error("unknown type accepted")
	}
}

// TestErrorTextTruncated: an oversized error string is clipped, not refused —
// losing the tail of a diagnostic beats losing the diagnostic.
func TestErrorTextTruncated(t *testing.T) {
	long := strings.Repeat("x", maxErrorText+100)
	b := encoded(t, &Message{Type: MsgError, Text: long})
	m, err := ReadMessage(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Text) != maxErrorText {
		t.Fatalf("text came back %d bytes, want clipped to %d", len(m.Text), maxErrorText)
	}
}
