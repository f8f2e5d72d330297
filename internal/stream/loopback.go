package stream

import (
	"context"
	"net"

	"smokescreen/internal/camera"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// Loopback runs a camera and the receiver in one process, joined by an
// in-process pipe: a camera goroutine replays loops sessions — session i
// from nodes[min(i, len(nodes)-1)] (the receiver's Sources clamp the same
// way) with stats.NewStream(seed+i) — and closes its end, while recv.Run
// consumes the other end on the calling goroutine. Cancelling ctx closes
// both pipe ends, so a transport read or write parked on the peer unwinds
// (Run's cancellation contract). Loopback returns once both sides have
// stopped, with what the camera sent and the stream's outcome: nil on a
// clean end, ctx.Err() when cancelled, else whichever side failed first.
func Loopback(ctx context.Context, recv *Receiver, nodes []*camera.Node, loops int, seed uint64) (camera.Report, error) {
	pipeCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	cameraEnd, receiverEnd := net.Pipe()
	go func() {
		<-pipeCtx.Done()
		cameraEnd.Close()
		receiverEnd.Close()
	}()

	var (
		sent       camera.Report
		cameraErr  error
		cameraDone = make(chan struct{})
	)
	go func() {
		defer close(cameraDone)
		defer cameraEnd.Close() // end-of-stream for the receiver, clean or not
		conn := transport.New(cameraEnd)
		for i := 0; i < loops; i++ {
			node := nodes[min(i, len(nodes)-1)]
			report, err := node.StreamCtx(pipeCtx, conn, stats.NewStream(seed+uint64(i)))
			if err != nil {
				if pipeCtx.Err() == nil {
					cameraErr = err // its own failure, not the teardown's echo
				}
				return
			}
			sent.FramesCaptured += report.FramesCaptured
			sent.FramesTransmitted += report.FramesTransmitted
			sent.CaptureJoules += report.CaptureJoules
			sent.ComputeJoules += report.ComputeJoules
			// Bytes, and the radio energy priced from them, are cumulative
			// per connection (conn.BytesSent): the last session's are the
			// stream's.
			sent.BytesTransmitted = report.BytesTransmitted
			sent.TransmitJoules = report.TransmitJoules
		}
	}()

	err := recv.Run(pipeCtx, transport.New(receiverEnd))
	cancel() // releases a camera still parked in a write
	<-cameraDone
	switch {
	case cameraErr != nil:
		err = cameraErr // the root cause of whatever the receiver read next
	case err == nil:
		// A cancel that lands exactly at a session boundary closes the pipe
		// where the receiver reads a clean end-of-stream; it must still
		// report cancelled.
		err = ctx.Err()
	}
	return sent, err
}
