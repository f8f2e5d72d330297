package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"smokescreen/internal/camera"
	"smokescreen/internal/codec"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/stream"
	"smokescreen/internal/transport"
)

// stream_ingest: frame in, window bound out.
//
// A camera plays a corpus over an in-process pipe into one stream.Receiver,
// which answers a windowed AVG with its any-time bound. The pipe is
// synchronous, so the camera waits for the receiver: a closed loop at
// saturation. It is the only workload where camera, codec, transport and
// estimate.Window do real work, and it uses the detector differently from
// the others — one frame at a time in temporal order, no column store.

const (
	streamCorpus     = "small"
	streamFraction   = 0.2
	streamResolution = 160
	streamSpan       = 200
	streamStride     = 100
	// One pass over the corpus per connection (1200 positions, 11 windows)
	// keeps a round near 0.6 s: the gauge readings at its two ends sit close
	// to its work, and a run has some thirty rounds to take its median over.
	streamLoops = 1
)

// streamOp is one round: one connection carrying streamLoops back-to-back camera
// sessions, session i sampling its frames with CameraSeeds[i].
type streamOp struct {
	CameraSeeds []uint64 `json:"camera_seeds"`
}

// window is one completed window and when the receiver emitted it.
type window struct {
	at  time.Time
	res stream.WindowResult
}

// sessionResult is what one connection produced.
type sessionResult struct {
	windows []window
	status  stream.Status
	wall    time.Duration
	err     error
}

type streamIngest struct {
	b        *bench
	video    *scene.Video
	model    *detect.Model
	node     *camera.Node
	baseline *stream.Baseline
	round0   *sessionResult
	captured [][]byte // traced run: round 0's wire bytes, one slice per receiver-side read
}

func newStreamIngest(b *bench) workload { return &streamIngest{b: b} }

// op returns round r's camera seeds. Round 0 is the reference round: its
// seeds are fixed, so its windows — and err_bound_mean, taken from them —
// are the same in every run. Later rounds draw their seeds from the run's.
func (w *streamIngest) op(r int) streamOp {
	op := streamOp{CameraSeeds: make([]uint64, streamLoops)}
	for i := range op.CameraSeeds {
		if r == 0 {
			op.CameraSeeds[i] = 1000 + uint64(i)
		} else {
			op.CameraSeeds[i] = stats.NewStream(w.b.opts.Seed).ChildN(0x57e, uint64(r), uint64(i)).Uint64()
		}
	}
	return op
}

func (w *streamIngest) opList(r int) any { return w.op(r) }

func (w *streamIngest) setup() error {
	detect.ResetCaches()
	v, err := dataset.Load(streamCorpus)
	if err != nil {
		return err
	}
	w.video, w.model = v, detect.YOLOv4Sim()
	w.node = &camera.Node{
		Video:   v,
		Model:   w.model,
		Setting: degrade.Setting{SampleFraction: streamFraction, Resolution: streamResolution},
		Energy:  camera.DefaultEnergyModel(),
	}
	// The drift baseline the daemon builds when a stream starts: the full
	// detector-output column at the transmitted resolution.
	if w.baseline, err = stream.CorpusBaseline(context.Background(), v, w.model, scene.Car, streamResolution); err != nil {
		return err
	}
	// Priming pass: one session through the whole path.
	res := w.session(streamOp{CameraSeeds: []uint64{1 << 32}}, sessionOptions{})
	return res.err
}

func (w *streamIngest) teardown() {}

// sessionOptions vary how one connection is observed.
type sessionOptions struct {
	verify bool           // stream.Config.Verify: incremental state == from-scratch
	tap    func(p []byte) // sees every receiver-side read, in order
}

// tapConn lets a traced session see the bytes the receiver reads.
type tapConn struct {
	net.Conn
	tap func(p []byte)
}

func (c tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.tap(p[:n])
	}
	return n, err
}

// session runs one connection to completion: the camera goroutine streams
// op's sessions, the receiver consumes them on this goroutine.
func (w *streamIngest) session(op streamOp, opts sessionOptions) *sessionResult {
	res := &sessionResult{}
	recv, err := stream.New(stream.Config{
		Model:        w.model,
		Class:        scene.Car,
		Agg:          estimate.AVG,
		WindowSpan:   streamSpan,
		WindowStride: streamStride,
		Sources:      []*scene.Video{w.video},
		Baseline:     w.baseline,
		Verify:       opts.verify,
		OnWindow:     func(wr stream.WindowResult) { res.windows = append(res.windows, window{time.Now(), wr}) },
	})
	if err != nil {
		res.err = err
		return res
	}
	cameraEnd, receiverEnd := net.Pipe()
	var wg sync.WaitGroup
	var camErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Closing is the clean end-of-stream; after a camera error it
		// unblocks the receiver, which then reports a torn session.
		defer cameraEnd.Close()
		conn := transport.New(cameraEnd)
		for _, seed := range op.CameraSeeds {
			if _, camErr = w.node.Stream(conn, stats.NewStream(seed)); camErr != nil {
				return
			}
		}
	}()
	var rw io.ReadWriter = receiverEnd
	if opts.tap != nil {
		rw = tapConn{receiverEnd, opts.tap}
	}
	t0 := time.Now()
	res.err = recv.Run(context.Background(), transport.New(rw))
	res.wall = time.Since(t0)
	receiverEnd.Close() // unblocks a camera still writing after a receiver error
	wg.Wait()
	if res.err == nil {
		res.err = camErr
	}
	res.status = recv.Status()
	return res
}

// expectedWindows is how many windows fit a stream of the given length.
func expectedWindows(positions int) int {
	if positions < streamSpan {
		return 0
	}
	return (positions-streamSpan)/streamStride + 1
}

// checkSession counts one connection as an attempted op and checks what it
// produced: every window that fits, none late, all bounds finite.
func (w *streamIngest) checkSession(op streamOp, res *sessionResult) bool {
	rec := w.b.rec
	if !rec.check(res.err == nil, "session: %v", res.err) {
		return false
	}
	want := expectedWindows(len(op.CameraSeeds) * w.video.NumFrames())
	ok := rec.check(len(res.windows) == want && res.status.Windows == want, "session emitted %d windows, want %d", len(res.windows), want)
	ok = rec.check(res.status.Late == 0, "session dropped %d late frames", res.status.Late) && ok
	for _, win := range res.windows {
		e := win.res.Estimate
		if math.IsNaN(e.ErrBound) || math.IsInf(e.ErrBound, 0) || e.ErrBound < 0 || math.IsNaN(e.Value) {
			ok = rec.check(false, "window %d: value %v, bound %v", win.res.Seq, e.Value, e.ErrBound) && ok
		}
	}
	return ok
}

// gaps returns the window turnaround times of one connection: the time
// between consecutive completed windows while the camera keeps the receiver
// saturated.
func gaps(windows []window) []time.Duration {
	var out []time.Duration
	for i := 1; i < len(windows); i++ {
		out = append(out, windows[i].at.Sub(windows[i-1].at))
	}
	return out
}

func (w *streamIngest) round(r int) error {
	op := w.op(r)
	res := w.session(op, sessionOptions{})
	w.checkSession(op, res)
	for _, g := range gaps(res.windows) {
		w.b.rec.latency(g)
	}
	w.b.rec.done(res.status.Frames)
	if r == 0 {
		w.round0 = res
	}
	return nil
}

// finish checks round 0's windows against the column the receiver's
// detector would produce for every frame of each window, not just the
// sampled ones: the bound must cover the sampling error.
func (w *streamIngest) finish() float64 {
	bounds := boundStats{delta: estimate.DefaultParams().Delta}
	if w.round0 == nil {
		return 0
	}
	col, err := outputs.Full(context.Background(), w.video, w.model, scene.Car, streamResolution)
	if !w.b.rec.check(err == nil, "column at %d: %v", streamResolution, err) {
		return 0
	}
	n := len(col)
	for _, win := range w.round0.windows {
		bounds.add(win.res.Estimate.ErrBound)
		var sum float64
		for pos := win.res.Lo; pos < win.res.Hi; pos++ {
			sum += col[pos%n]
		}
		bounds.cover(win.res.Estimate, sum/float64(win.res.Hi-win.res.Lo))
	}
	w.b.rec.check(bounds.withinRisk(), "%d of %d window bounds miss the window's true mean, more than risk %.2f allows", bounds.violations, bounds.covered, bounds.delta)
	return bounds.mean()
}

// traceRound runs round r's connection twice — untouched as the reference,
// then with a tap on the receiver's reads — and, for round 0, once more with
// the receiver's own incremental-versus-from-scratch verification on.
func (w *streamIngest) traceRound(r int) error {
	op := w.op(r)
	ref := w.session(op, sessionOptions{})
	if !w.checkSession(op, ref) {
		return nil
	}
	for _, g := range gaps(ref.windows) {
		w.b.rec.latency(g)
		w.b.refMS = append(w.b.refMS, ms(g))
	}

	var reads [][]byte
	tapped := w.session(op, sessionOptions{tap: func(p []byte) { reads = append(reads, append([]byte(nil), p...)) }})
	if !w.checkSession(op, tapped) {
		return nil
	}
	for _, g := range gaps(tapped.windows) {
		w.b.tracedMS = append(w.b.tracedMS, ms(g))
	}
	same := len(tapped.windows) == len(ref.windows)
	for i := 0; same && i < len(ref.windows); i++ {
		same = tapped.windows[i].res == ref.windows[i].res
	}
	w.b.rec.check(same, "tapped session's windows differ from the reference session's")

	if r == 0 {
		w.round0, w.captured = ref, reads
		verified := w.session(op, sessionOptions{verify: true})
		w.b.rec.check(verified.err == nil, "verify session: %v", verified.err)
	}
	return nil
}

// layerMetrics replays round 0's captured wire bytes through each receiver
// layer on its own — transport framing, frame decode, detection, window
// estimator, drift divergence — and times the camera alone into a peer that
// discards what it reads.
func (w *streamIngest) layerMetrics() {
	b, tr := w.b, w.b.tr
	if w.round0 == nil {
		return
	}
	var wire bytes.Buffer
	for _, p := range w.captured {
		wire.Write(p)
	}
	wireBytes := wire.Len()
	conn := transport.New(&wire)
	est, err := estimate.NewWindow(estimate.AVG, streamSpan, estimate.DefaultParams(), true)
	if err != nil {
		return
	}

	// One pass over the messages in arrival order, each layer under its own
	// span; base tracks the stream position of the current session's frame 0
	// and seq the next window to complete, as the receiver does.
	var recvUS, decodeUS, detectUS, observeUS, advanceUS, divergeUS []float64
	base, seq, frames, op := 0, 0, 0, 0
	complete := func(limit int) {
		for seq*streamStride+streamSpan <= limit {
			d, _ := tr.run("estimate.window_advance", op, 0, func() error { est.Advance(seq * streamStride); return nil })
			advanceUS = append(advanceUS, us(d))
			_, values := est.Snapshot()
			d, _ = tr.run("stream.divergence", op, 0, func() error { w.baseline.Divergence(values); return nil })
			divergeUS = append(divergeUS, us(d))
			seq++
		}
	}
	for {
		op++
		var msgType byte
		var payload []byte
		d, err := tr.run("transport.recv", op, 0, func() error {
			var err error
			msgType, payload, err = conn.Receive()
			return err
		})
		if err != nil {
			break // io.EOF: the captured stream is exhausted
		}
		recvUS = append(recvUS, us(d))
		switch msgType {
		case transport.MsgFrame:
			var fr *codec.FrameRecord
			d, err := tr.run("codec.decode_frame", op, 0, func() error {
				var err error
				fr, err = codec.DecodeFrame(payload)
				return err
			})
			if err != nil {
				return
			}
			decodeUS = append(decodeUS, us(d))
			pos := base + fr.Index
			complete(pos)
			var count float64
			d, _ = tr.run("detect.frame", op, 0, func() error {
				count = float64(detect.CountClass(w.model.DetectFrame(w.video, fr.Index, streamResolution), scene.Car))
				return nil
			})
			detectUS = append(detectUS, us(d))
			d, _ = tr.run("estimate.window_observe", op, 0, func() error { est.ObserveFrame(pos, count); return nil })
			observeUS = append(observeUS, us(d))
			frames++
		case transport.MsgEnd:
			base += w.video.NumFrames()
		}
	}
	complete(base)
	if frames == 0 {
		return
	}

	b.layer("transport.recv_us_p50", median(recvUS))
	b.layer("transport.bytes_per_frame", float64(wireBytes)/float64(frames))
	b.layer("codec.decode_frame_us_p50", median(decodeUS))
	b.layer("detect.frame_patch_us_p50", median(detectUS))
	b.layer("detect.invocations_per_op", float64(frames)) // one detector call per frame folded; the op is the connection
	b.layer("estimate.window_observe_us_p50", median(observeUS))
	b.layer("estimate.window_advance_us_p50", median(advanceUS))
	b.layer("stream.divergence_us_p50", median(divergeUS))
	b.layer("stream.windows", float64(len(w.round0.windows)))
	b.layer("stream.late_frames", float64(w.round0.status.Late))

	// What the receiver spends per frame beyond the layers replayed above:
	// its own bookkeeping plus the time it waits on the camera.
	replayed := 0.0
	for _, xs := range [][]float64{recvUS, decodeUS, detectUS, observeUS, advanceUS, divergeUS} {
		for _, x := range xs {
			replayed += x
		}
	}
	b.layer("stream.receiver_residual_us_per_frame", (us(w.round0.wall)-replayed)/float64(frames))

	self, total := tr.selfTimes()
	if total > 0 {
		b.layer("detect.stage_share", self["detect.frame"].Seconds()/total.Seconds())
		b.layer("estimate.stage_share", (self["estimate.window_observe"]+self["estimate.window_advance"]).Seconds()/total.Seconds())
	}

	// The camera alone: the same sessions into a peer that reads and drops.
	cameraEnd, sink := net.Pipe()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, sink) // ends when the camera side closes
	}()
	sent := 0
	d, err := tr.run("probe.camera_stream", 0, 0, func() error {
		c := transport.New(cameraEnd)
		for _, seed := range w.op(0).CameraSeeds {
			rep, err := w.node.Stream(c, stats.NewStream(seed))
			if err != nil {
				return err
			}
			sent += rep.FramesTransmitted
		}
		return nil
	})
	cameraEnd.Close()
	<-drained
	sink.Close()
	if err == nil && d > 0 {
		b.layer("camera.frames_per_s", float64(sent)/d.Seconds())
	}
	reportCaches(b)
	b.layer("scene.generate_ms", generateMS(streamCorpus))
}

// generateMS times one generation of a registered corpus from its config.
func generateMS(name string) float64 {
	var cfg scene.Config
	switch name {
	case "small":
		cfg = dataset.SmallConfig()
	case "mvi-40775":
		cfg = dataset.MVI40775Config()
	default:
		return 0
	}
	t0 := time.Now()
	if _, err := scene.Generate(cfg); err != nil {
		return 0
	}
	return ms(time.Since(t0))
}
