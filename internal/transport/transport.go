// Package transport implements the byte-accounted wire protocol between
// the simulated cameras and the central video query processor. It is a
// minimal length-prefixed message framing over any io.ReadWriter (net.Pipe
// for in-process experiments, TCP for distributed ones), with per-
// direction byte counters that feed the bandwidth and energy accounting of
// the camera package — the paper's "system requirements" motivation made
// measurable.
package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Message types carried on the wire.
const (
	// MsgConfig announces the camera's capture spec and intervention
	// setting; always the first message of a stream.
	MsgConfig byte = iota + 1
	// MsgBackground carries the static background raster at transmission
	// resolution, used by the receiver's detector.
	MsgBackground
	// MsgFrame carries one degraded frame (codec frame record).
	MsgFrame
	// MsgEnd terminates a stream.
	MsgEnd
)

// maxMessageSize bounds a single message; a full 640x640 uncompressed
// frame is ~400 KiB, so 64 MiB leaves ample slack while still catching
// corrupt length prefixes.
const maxMessageSize = 64 << 20

// Conn is a framed, byte-accounted connection. Send and Receive are each
// safe for one concurrent caller (one sender goroutine, one receiver
// goroutine), matching the camera/processor topology. All counters are
// atomics, so Snapshot and the accessor methods are safe to call from any
// goroutine while Send/Receive are in flight.
//
// A Conn owns the read side of its stream: Receive reads ahead through a
// buffer, so bytes past the message it returns may already have left the
// underlying reader. Wrap a stream in one Conn for its whole life; the
// byte counters count messages returned, not bytes buffered.
type Conn struct {
	sendMu  sync.Mutex
	w       io.Writer
	sendBuf []byte // header + payload of the message being written, reused across Sends

	recvMu sync.Mutex
	br     *bufio.Reader
	prefix byteReader // the length prefix being read; a field so it is not allocated per message

	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
	messagesSent  atomic.Int64
	messagesRecv  atomic.Int64
}

// Counters is a point-in-time snapshot of per-direction transfer totals.
type Counters struct {
	BytesSent        int64
	BytesReceived    int64
	MessagesSent     int64
	MessagesReceived int64
}

// globals accumulate transfer totals across every Conn in the process, so
// a daemon can export fleet-wide bandwidth without tracking connections.
var (
	globalBytesSent     atomic.Int64
	globalBytesReceived atomic.Int64
	globalMessagesSent  atomic.Int64
	globalMessagesRecv  atomic.Int64
)

// New wraps a bidirectional stream in a framed connection.
func New(rw io.ReadWriter) *Conn {
	c := &Conn{w: rw, br: bufio.NewReaderSize(rw, receiveChunk)}
	c.prefix.r = c.br
	return c
}

// Send writes one framed message — varint length, type byte, payload — in
// a single Write: on a synchronous pipe every Write is a rendezvous with
// the reader, and a zero-byte Write of an empty payload would block
// forever once the peer has read the message and gone.
func (c *Conn) Send(msgType byte, payload []byte) error {
	if len(payload) > maxMessageSize {
		return fmt.Errorf("transport: message of %d bytes exceeds limit", len(payload))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	buf := binary.AppendUvarint(c.sendBuf[:0], uint64(len(payload)+1))
	buf = append(append(buf, msgType), payload...)
	c.sendBuf = buf
	if _, err := c.w.Write(buf); err != nil {
		return fmt.Errorf("transport: send: %w", err)
	}
	c.bytesSent.Add(int64(len(buf)))
	c.messagesSent.Add(1)
	globalBytesSent.Add(int64(len(buf)))
	globalMessagesSent.Add(1)
	return nil
}

// Receive reads the next framed message. It returns io.EOF when the peer
// closed the stream cleanly before a header. The payload is the caller's:
// a fresh slice per message, never the Conn's read-ahead buffer.
func (c *Conn) Receive() (byte, []byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	br := &c.prefix
	br.n = 0
	length, err := binary.ReadUvarint(br)
	if err != nil {
		if errors.Is(err, io.EOF) && br.n == 0 {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("transport: receive header: %w", err)
	}
	if length == 0 || length > maxMessageSize {
		return 0, nil, fmt.Errorf("transport: corrupt message length %d", length)
	}
	var canon [binary.MaxVarintLen64]byte
	if br.n != binary.PutUvarint(canon[:], length) {
		// Send always emits the minimal varint; a padded encoding is not
		// a frame any peer of ours produced.
		return 0, nil, fmt.Errorf("transport: non-canonical length prefix (%d bytes for %d)", br.n, length)
	}
	body, err := readBody(c.br, int64(length))
	if err != nil {
		return 0, nil, fmt.Errorf("transport: receive payload: %w", err)
	}
	c.bytesReceived.Add(int64(br.n) + int64(length))
	c.messagesRecv.Add(1)
	globalBytesReceived.Add(int64(br.n) + int64(length))
	globalMessagesRecv.Add(1)
	return body[0], body[1:], nil
}

// BytesSent returns the total bytes written, including framing.
func (c *Conn) BytesSent() int64 { return c.bytesSent.Load() }

// BytesReceived returns the total bytes read, including framing.
func (c *Conn) BytesReceived() int64 { return c.bytesReceived.Load() }

// MessagesSent returns the number of messages written.
func (c *Conn) MessagesSent() int64 { return c.messagesSent.Load() }

// Snapshot returns the connection's cumulative per-direction transfer
// counters. It is race-safe against concurrent Send and Receive; each
// counter is read atomically, so a snapshot taken mid-message may see a
// message counted whose peer-side bytes are still in flight, but never a
// torn counter value.
func (c *Conn) Snapshot() Counters {
	return Counters{
		BytesSent:        c.bytesSent.Load(),
		BytesReceived:    c.bytesReceived.Load(),
		MessagesSent:     c.messagesSent.Load(),
		MessagesReceived: c.messagesRecv.Load(),
	}
}

// Totals returns process-wide cumulative transfer counters summed over
// every Conn ever created, for export by long-running daemons.
func Totals() Counters {
	return Counters{
		BytesSent:        globalBytesSent.Load(),
		BytesReceived:    globalBytesReceived.Load(),
		MessagesSent:     globalMessagesSent.Load(),
		MessagesReceived: globalMessagesRecv.Load(),
	}
}

// receiveChunk caps the upfront body allocation. A declared length at or
// below the chunk is trusted (legitimate control messages and frame
// records are small, and the cost of being wrong is bounded by the
// chunk); larger bodies grow as bytes actually arrive, so a corrupt or
// hostile length prefix costs at most one chunk of memory, not
// maxMessageSize.
const receiveChunk = 64 << 10

// readBody reads exactly length bytes. A trusted small body is read into
// one exact allocation; a larger one tracks the data actually delivered
// (bytes.Buffer growth under a LimitReader), never the declared length.
func readBody(r io.Reader, length int64) ([]byte, error) {
	if length <= receiveChunk {
		body := make([]byte, length)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, truncated(err)
		}
		return body, nil
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, length); err != nil {
		return nil, truncated(err)
	}
	return buf.Bytes(), nil
}

// truncated reports a body that ended early the way io.ReadFull does after
// a partial read, whether or not any of it arrived.
func truncated(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// byteReader counts the bytes of a length prefix as they are read.
type byteReader struct {
	r io.ByteReader
	n int
}

func (b *byteReader) ReadByte() (byte, error) {
	v, err := b.r.ReadByte()
	if err == nil {
		b.n++
	}
	return v, err
}
