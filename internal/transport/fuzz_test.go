package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frameBytes renders one well-formed wire frame, independently of Send,
// so fuzz verification cannot share a bug with the sender.
func frameBytes(msgType byte, payload []byte) []byte {
	var hdr [binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)+1))
	hdr[n] = msgType
	return append(append([]byte(nil), hdr[:n+1]...), payload...)
}

// FuzzReceive drives the receiver over arbitrary byte streams. The
// framing contract under hostile input:
//
//   - Receive never panics: it returns a valid (type, payload) or an
//     error, and io.EOF only at a clean frame boundary.
//   - A successful Receive accounted exactly one well-formed frame:
//     re-framing the returned message reproduces the bytes between the
//     previous and the new Conn.BytesReceived(). (The Conn reads ahead,
//     so how much has left the underlying reader says nothing.)
//   - The loop always makes progress (accounts input or stops), so a
//     malicious peer cannot wedge the receiver.
func FuzzReceive(f *testing.F) {
	f.Add(frameBytes(MsgConfig, []byte("camera=small;w=320")))
	f.Add(frameBytes(MsgEnd, nil))
	f.Add(append(frameBytes(MsgFrame, bytes.Repeat([]byte{0x7f}, 300)), frameBytes(MsgEnd, nil)...))
	f.Add([]byte{})
	f.Add([]byte{0x00})                                                       // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge varint
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // varint overflow
	f.Add([]byte{0x80})                                                       // truncated varint
	f.Add([]byte{0x05, MsgFrame, 0x01})                                       // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(readWriter{bytes.NewBuffer(append([]byte(nil), data...))})
		for {
			start := int(c.BytesReceived())
			msgType, payload, err := c.Receive()
			end := int(c.BytesReceived())
			if err != nil {
				if end != start {
					t.Fatalf("failed Receive accounted %d bytes", end-start)
				}
				if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && start != len(data) {
					t.Fatalf("clean EOF at byte %d of %d", start, len(data))
				}
				return
			}
			if end <= start || end > len(data) {
				t.Fatalf("successful Receive accounted bytes [%d, %d) of %d", start, end, len(data))
			}
			if want := frameBytes(msgType, payload); !bytes.Equal(want, data[start:end]) {
				t.Fatalf("accounted bytes %x do not re-frame message type %d payload %x",
					data[start:end], msgType, payload)
			}
		}
	})
}

func TestCorruptLengthDoesNotPreallocate(t *testing.T) {
	// A frame declaring a near-limit body with almost no data behind it
	// must fail after allocating memory proportional to the bytes
	// delivered, not to the declared 48 MiB.
	var wire bytes.Buffer
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], 48<<20)
	wire.Write(hdr[:n])
	wire.Write([]byte{MsgFrame, 0xde, 0xad})
	c := New(readWriter{&wire})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := c.Receive()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated near-limit frame accepted")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want unexpected EOF, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("receive of truncated 48 MiB claim allocated %d bytes", grew)
	}
}

func TestLargeGenuineMessageStillDelivered(t *testing.T) {
	// The bounded-allocation path must not break genuinely large frames:
	// a multi-chunk payload round-trips intact.
	payload := bytes.Repeat([]byte{0xC3}, 3*receiveChunk+17)
	var wire bytes.Buffer
	c := New(readWriter{&wire})
	if err := c.Send(MsgFrame, payload); err != nil {
		t.Fatal(err)
	}
	msgType, got, err := c.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgFrame || !bytes.Equal(got, payload) {
		t.Fatalf("large payload corrupted: type %d, %d bytes", msgType, len(got))
	}
}
