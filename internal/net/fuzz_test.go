package net

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzReadMessage hardens the wire-protocol decoder: arbitrary bytes may
// error, but must never panic, never allocate beyond the data actually
// supplied, and anything accepted must re-encode canonically — the encoding
// of a decoded message decodes to the same bytes, so a frame can never mean
// two different things on the two ends of a connection.
func FuzzReadMessage(f *testing.F) {
	// One valid frame of every type.
	for _, m := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var task bytes.Buffer
	if err := WriteMessage(&task, &Message{Type: MsgTask, Task: 5}); err != nil {
		f.Fatal(err)
	}
	tb := task.Bytes()
	f.Add(tb[:7])                                 // truncated header
	f.Add(tb[:len(tb)-3])                         // truncated body
	f.Add([]byte("FITS\x01\x05\x08\x00\x00\x00")) // bad magic
	f.Add([]byte{})
	// Header declaring an oversized payload backed by nothing.
	huge := append([]byte(nil), tb[:headerLen]...)
	binary.LittleEndian.PutUint32(huge[6:], maxFramePayload+1)
	f.Add(huge)
	// Valid frame with one payload bit flipped: must fail the checksum.
	flipped := append([]byte(nil), tb...)
	flipped[headerLen] ^= 0x01
	f.Add(flipped)
	// Params frame smuggling a NaN.
	nan := frame(ProtocolVersion, MsgParams,
		binary.LittleEndian.AppendUint64(
			binary.LittleEndian.AppendUint32(nil, 1),
			math.Float64bits(math.NaN())))
	f.Add(nan)
	// The type numbers v4 gave Join and Leave: unknown at v5, never decoded.
	f.Add(frame(ProtocolVersion, msgTypeEnd, nil))
	f.Add(frame(ProtocolVersion, msgTypeEnd+1, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever the reader accepted must re-encode...
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		// ...and the re-encoding must be stable: decode it again and the
		// bytes must not change (a canonical form, so no frame is ambiguous).
		m2, err := ReadMessage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		var buf2 bytes.Buffer
		if err := WriteMessage(&buf2, m2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("re-encoding is not canonical")
		}
		// Accepted parameter payloads must be finite end to end.
		for _, v := range m.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite value survived decoding")
			}
		}
	})
}
