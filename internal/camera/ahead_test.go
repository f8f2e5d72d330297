package camera

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smokescreen/internal/codec"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// settleGoroutines waits for the goroutine count to come back to want. The
// stage joins its workers before returning, but a joined goroutine is
// counted until it has finished exiting, a few instructions after its
// deferred Done.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: capture workers outlived the call", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// withProcs runs the test body with several capture workers even on a
// one-CPU host.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func tornNode() *Node {
	return &Node{
		Video:   dataset.MustLoad("small"),
		Model:   detect.YOLOv4Sim(),
		Setting: degrade.Setting{SampleFraction: 0.5, Resolution: 160},
		Energy:  DefaultEnergyModel(),
	}
}

func TestStreamCtxCancelMidSession(t *testing.T) {
	withProcs(t, 4)
	node := tornNode()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The receiver reads a few frames, cancels, and keeps reading: the
	// camera must stop because of the context, not because the pipe broke.
	received := make(chan int, 1)
	go func() {
		frames := 0
		defer func() { received <- frames }()
		c := transport.New(server)
		for {
			msgType, _, err := c.Receive()
			if err != nil {
				return
			}
			if msgType == transport.MsgFrame {
				if frames++; frames == 20 {
					cancel()
				}
			}
		}
	}()

	before := runtime.NumGoroutine()
	report, err := node.StreamCtx(ctx, transport.New(client), stats.NewStream(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamCtx = %v, want context.Canceled", err)
	}
	settleGoroutines(t, before)
	client.Close()
	frames := <-received
	if report.FramesTransmitted != frames || frames >= 600 {
		t.Fatalf("report says %d frames transmitted, receiver saw %d of 600", report.FramesTransmitted, frames)
	}
}

func TestStreamCtxReceiverClosesMidSession(t *testing.T) {
	withProcs(t, 4)
	node := tornNode()
	client, server := net.Pipe()
	defer client.Close()
	go func() {
		c := transport.New(server)
		for frames := 0; frames < 20; {
			msgType, _, err := c.Receive()
			if err != nil {
				break
			}
			if msgType == transport.MsgFrame {
				frames++
			}
		}
		server.Close()
	}()

	before := runtime.NumGoroutine()
	report, err := node.StreamCtx(context.Background(), transport.New(client), stats.NewStream(5))
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("StreamCtx = %v, want io.ErrClosedPipe from the torn Send", err)
	}
	// The receiver goroutine is in the count until it has closed its end,
	// which is what produced the error: it is gone or going.
	settleGoroutines(t, before)
	if report.FramesTransmitted != 20 {
		t.Fatalf("report says %d frames transmitted, receiver read 20", report.FramesTransmitted)
	}
}

func TestRunAheadProduceError(t *testing.T) {
	withProcs(t, 4)
	// A real EncodeFrame failure (an annotation count over the codec's
	// limit) on one index: runAhead consumes everything before it, in
	// order, reports that error, and has joined its workers.
	const n, bad = 200, 57
	tooMany := make([]scene.Object, 1<<16+1)
	var produced atomic.Int64
	produce := func(i int) ([]byte, error) {
		produced.Add(1)
		fr := &codec.FrameRecord{Index: i}
		if i == bad {
			fr.Objects = tooMany
		}
		return codec.EncodeFrame(fr)
	}
	var consumed []int
	before := runtime.NumGoroutine()
	err := runAhead(context.Background(), n, produce, func(block []byte) error {
		fr, err := codec.DecodeFrame(block)
		if err != nil {
			t.Errorf("block %d: %v", len(consumed), err)
			return nil
		}
		consumed = append(consumed, fr.Index)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("runAhead = %v, want EncodeFrame's object-limit error", err)
	}
	settleGoroutines(t, before)
	if len(consumed) != bad {
		t.Fatalf("consumed %d indices before the failing one, want %d", len(consumed), bad)
	}
	for i, got := range consumed {
		if got != i {
			t.Fatalf("consumed[%d] = %d: out of order", i, got)
		}
	}
	if got := produced.Load(); got > bad+captureDepth {
		t.Fatalf("produced %d indices, more than captureDepth=%d ahead of the failure at %d", got, captureDepth, bad)
	}
}

func TestRunAheadOrderAndBound(t *testing.T) {
	withProcs(t, 8)
	// Producers finish out of order (later indices are cheaper); the
	// consumer still sees every index once, in order, and production never
	// runs more than captureDepth ahead of consumption.
	const n = 300
	var consumedUpTo atomic.Int64
	produce := func(i int) ([]byte, error) {
		if ahead := int64(i) - consumedUpTo.Load(); ahead >= captureDepth {
			t.Errorf("index %d produced %d ahead of the consumer", i, ahead)
		}
		if i%7 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return []byte{byte(i), byte(i >> 8)}, nil
	}
	next := 0
	err := runAhead(context.Background(), n, produce, func(block []byte) error {
		if got := int(block[0]) | int(block[1])<<8; got != next {
			t.Errorf("consumed block of index %d, want %d", got, next)
		}
		next++
		consumedUpTo.Store(int64(next))
		return nil
	})
	if err != nil || next != n {
		t.Fatalf("runAhead = %v after %d of %d", err, next, n)
	}
	if err := runAhead(context.Background(), 0, produce, nil); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}

func TestRunAheadConsumeErrorAndCancel(t *testing.T) {
	withProcs(t, 4)
	block := func(i int) ([]byte, error) { return []byte{1}, nil }
	boom := errors.New("wire torn")
	before := runtime.NumGoroutine()
	consumed := 0
	err := runAhead(context.Background(), 100, block, func([]byte) error {
		if consumed++; consumed == 31 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("runAhead = %v, want the consumer's error", err)
	}
	settleGoroutines(t, before)

	// A context cancelled while a producer is stuck: the consumer stops
	// waiting at once and the join waits only for that producer.
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	go func() {
		cancel()
		close(release)
	}()
	err = runAhead(ctx, 100, func(i int) ([]byte, error) {
		<-release
		return []byte{1}, nil
	}, func([]byte) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runAhead = %v, want context.Canceled", err)
	}
	settleGoroutines(t, before)
}

// BenchmarkCameraStream is the camera alone, into a peer that reads and
// discards: the repository benchmark's session (small, f = 0.2, p = 160) and
// the dense worst case for capture, where traffic touches most rows and
// 640 -> 608 is not an integer downsample (mvi-40775, p = 608).
func BenchmarkCameraStream(b *testing.B) {
	for _, c := range []struct {
		corpus string
		p      int
	}{{"small", 160}, {"mvi-40775", 608}} {
		b.Run(c.corpus, func(b *testing.B) {
			node := tornNode()
			node.Video = dataset.MustLoad(c.corpus)
			node.Setting = degrade.Setting{SampleFraction: 0.2, Resolution: c.p}
			client, server := net.Pipe()
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				_, _ = io.Copy(io.Discard, server)
			}()
			conn := transport.New(client)
			frames := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := node.Stream(conn, stats.NewStream(uint64(1000+i)))
				if err != nil {
					b.Fatal(err)
				}
				frames += report.FramesTransmitted
			}
			b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
			client.Close()
			<-drained
		})
	}
}
