package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestSendReceiveRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	a := New(client)
	b := New(server)

	before := Totals()
	done := make(chan error, 1)
	go func() {
		done <- a.Send(MsgFrame, []byte("hello"))
	}()
	msgType, payload, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if msgType != MsgFrame || string(payload) != "hello" {
		t.Fatalf("got %d %q", msgType, payload)
	}
	d := Totals().since(before)
	if a.BytesSent() != d.BytesSent || d.BytesSent != d.BytesReceived {
		t.Fatalf("accounting mismatch: conn sent %d, totals sent %d received %d", a.BytesSent(), d.BytesSent, d.BytesReceived)
	}
	if d.MessagesSent != 1 || d.MessagesReceived != 1 {
		t.Fatalf("messages sent %d received %d, want 1 each", d.MessagesSent, d.MessagesReceived)
	}
}

func TestEmptyPayload(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	a, b := New(client), New(server)
	go func() { _ = a.Send(MsgEnd, nil) }()
	msgType, payload, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgEnd || len(payload) != 0 {
		t.Fatalf("got %d %v", msgType, payload)
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	a, b := New(client), New(server)
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send(MsgFrame, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		_, payload, err := b.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if payload[0] != byte(i) {
			t.Fatalf("message %d out of order: %d", i, payload[0])
		}
	}
	wg.Wait()
}

func TestReceiveEOFOnClose(t *testing.T) {
	client, server := net.Pipe()
	b := New(server)
	client.Close()
	defer server.Close()
	if _, _, err := b.Receive(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestCorruptLengthRejected(t *testing.T) {
	// A huge varint length must be rejected, not allocated.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	c := New(readWriter{&buf})
	if _, _, err := c.Receive(); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestOversizedSendRejected(t *testing.T) {
	c := New(readWriter{&bytes.Buffer{}})
	if err := c.Send(MsgFrame, make([]byte, maxMessageSize+1)); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	property := func(msgType byte, payload []byte) bool {
		if msgType == 0 {
			msgType = 1
		}
		var buf bytes.Buffer
		c := New(readWriter{&buf})
		if err := c.Send(msgType, payload); err != nil {
			return false
		}
		gotType, gotPayload, err := c.Receive()
		if err != nil {
			return false
		}
		return gotType == msgType && bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// countingWriter records the size of every Write it is handed.
type countingWriter struct{ writes []int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return len(p), nil
}
func (w *countingWriter) Read([]byte) (int, error) { return 0, io.EOF }

func TestSendIsOneWrite(t *testing.T) {
	// One Write per message, empty payload or not: on a synchronous pipe
	// each Write is a rendezvous with the reader.
	w := &countingWriter{}
	c := New(w)
	payload := bytes.Repeat([]byte{0x5a}, 17000)
	if err := c.Send(MsgFrame, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(MsgEnd, nil); err != nil {
		t.Fatal(err)
	}
	want := []int{len(frameBytes(MsgFrame, payload)), len(frameBytes(MsgEnd, nil))}
	if len(w.writes) != 2 || w.writes[0] != want[0] || w.writes[1] != want[1] {
		t.Fatalf("writes %v, want one per message: %v", w.writes, want)
	}
	if c.BytesSent() != int64(want[0]+want[1]) {
		t.Fatalf("BytesSent = %d, want %d", c.BytesSent(), want[0]+want[1])
	}
}

func TestSendEndDoesNotBlockOnDepartedPeer(t *testing.T) {
	// The receiver returns as soon as it has read MsgEnd and never reads
	// again; Send must still return. (net.Pipe blocks even a zero-byte
	// Write until someone reads, so an empty payload written on its own
	// would hang here.)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	a, b := New(client), New(server)
	got := make(chan byte, 1)
	go func() {
		msgType, _, _ := b.Receive()
		got <- msgType
	}()
	if err := a.Send(MsgEnd, nil); err != nil {
		t.Fatal(err)
	}
	if msgType := <-got; msgType != MsgEnd {
		t.Fatalf("peer received type %d", msgType)
	}
	// Once the peer has closed, a further MsgEnd fails instead of blocking.
	server.Close()
	if err := a.Send(MsgEnd, nil); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("send to a closed peer: %v", err)
	}
}

func TestReceiveOverOneByteReader(t *testing.T) {
	// The Conn's read-ahead must cope with a stream that trickles in one
	// byte per Read, across the small-body and the chunked-body path.
	var wire bytes.Buffer
	c := New(readWriter{&wire})
	msgs := [][]byte{[]byte("cfg"), nil, bytes.Repeat([]byte{0xC3}, 2*receiveChunk+5), {0x01}}
	for _, m := range msgs {
		if err := c.Send(MsgFrame, m); err != nil {
			t.Fatal(err)
		}
	}
	total := int64(wire.Len())
	before := Totals()
	r := New(struct {
		io.Reader
		io.Writer
	}{iotest.OneByteReader(&wire), io.Discard})
	for i, m := range msgs {
		msgType, payload, err := r.Receive()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if msgType != MsgFrame || !bytes.Equal(payload, m) {
			t.Fatalf("message %d corrupted: type %d, %d bytes", i, msgType, len(payload))
		}
	}
	if _, _, err := r.Receive(); err != io.EOF {
		t.Fatalf("after the last message: %v, want io.EOF", err)
	}
	if got := Totals().since(before).BytesReceived; got != total {
		t.Fatalf("bytes received = %d, want %d", got, total)
	}
}

// readWriter joins a buffer into a ReadWriter for loopback tests.
type readWriter struct{ buf *bytes.Buffer }

func (rw readWriter) Read(p []byte) (int, error)  { return rw.buf.Read(p) }
func (rw readWriter) Write(p []byte) (int, error) { return rw.buf.Write(p) }

// since returns the transfer between an earlier reading and c. The
// package's tests run one at a time, so a delta of the process totals is
// exactly what the test itself moved.
func (c Counters) since(before Counters) Counters {
	return Counters{
		BytesSent:        c.BytesSent - before.BytesSent,
		BytesReceived:    c.BytesReceived - before.BytesReceived,
		MessagesSent:     c.MessagesSent - before.MessagesSent,
		MessagesReceived: c.MessagesReceived - before.MessagesReceived,
	}
}

func TestSnapshotRaceSafe(t *testing.T) {
	// Totals' snapshots must be readable from any goroutine while a sender
	// and a receiver are both active; run under -race (make test-race) this
	// pins them as atomics, not plain ints. Receive accounting is what
	// /metrics serves, so the deltas must balance exactly.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	a, b := New(client), New(server)
	before := Totals()

	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		payload := bytes.Repeat([]byte{0xAB}, 64)
		for i := 0; i < n; i++ {
			if err := a.Send(MsgFrame, payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, _, err := b.Receive(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := Totals().since(before); a.BytesSent() < 0 || d.BytesReceived < 0 || d.MessagesReceived > n {
				t.Errorf("mid-flight totals %+v out of range", d)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	reads.Wait()

	d := Totals().since(before)
	if d.BytesSent != a.BytesSent() || d.BytesReceived != d.BytesSent {
		t.Fatalf("accounting mismatch: conn sent %d, totals sent %d received %d", a.BytesSent(), d.BytesSent, d.BytesReceived)
	}
	if d.MessagesSent != n || d.MessagesReceived != n {
		t.Fatalf("message counts: sent %d received %d, want %d", d.MessagesSent, d.MessagesReceived, n)
	}
}
