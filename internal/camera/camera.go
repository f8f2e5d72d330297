// Package camera simulates the configurable networked cameras of the
// paper's system model (Section 1): each camera collects frames, applies
// the administrator-chosen destructive interventions on-device, and
// transmits the degraded frames to the central video query processor. The
// package quantifies the *benefit* side of the tradeoff curves: how many
// bytes and joules a given intervention setting saves.
package camera

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"smokescreen/internal/codec"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/parallel"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// EnergyModel prices the camera's work. The defaults are loosely modelled
// on embedded-camera measurements (capture dominated by sensor readout,
// transmission by the radio), but only the *relative* savings matter to
// the experiments.
type EnergyModel struct {
	JoulesPerCapture float64 // sensor readout per captured frame
	JoulesPerPixel   float64 // on-device processing (downsample, encode)
	JoulesPerByte    float64 // radio transmission
}

// DefaultEnergyModel returns the model used by the examples: 50 mJ per
// capture, 2 nJ per processed pixel, 1 µJ per transmitted byte.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		JoulesPerCapture: 0.05,
		JoulesPerPixel:   2e-9,
		JoulesPerByte:    1e-6,
	}
}

// Report summarises one streaming session.
type Report struct {
	FramesCaptured    int
	FramesTransmitted int
	BytesTransmitted  int64
	CaptureJoules     float64
	ComputeJoules     float64
	TransmitJoules    float64
}

// TotalJoules returns the session's total energy cost.
func (r Report) TotalJoules() float64 {
	return r.CaptureJoules + r.ComputeJoules + r.TransmitJoules
}

// Config is the camera's capture specification, announced to the receiver
// in the MsgConfig message.
type Config struct {
	Name         string
	CaptureWidth int     // native sensor resolution
	NoiseSigma   float64 // sensor noise at native resolution
	Resolution   int     // transmission resolution after degradation
	TotalFrames  int     // N, so the receiver can scale SUM-type answers
}

// encode serialises the config message payload.
func (c Config) encode() []byte {
	buf := make([]byte, 0, 64)
	buf = binary.AppendUvarint(buf, uint64(len(c.Name)))
	buf = append(buf, c.Name...)
	buf = binary.AppendUvarint(buf, uint64(c.CaptureWidth))
	buf = binary.AppendUvarint(buf, math.Float64bits(c.NoiseSigma))
	buf = binary.AppendUvarint(buf, uint64(c.Resolution))
	buf = binary.AppendUvarint(buf, uint64(c.TotalFrames))
	return buf
}

func decodeConfig(payload []byte) (Config, error) {
	var c Config
	r := newSliceReader(payload)
	nameLen, err := r.uvarint()
	if err != nil {
		return c, err
	}
	name, err := r.bytes(int(nameLen))
	if err != nil {
		return c, err
	}
	c.Name = string(name)
	fields := [4]uint64{}
	for i := range fields {
		if fields[i], err = r.uvarint(); err != nil {
			return c, err
		}
	}
	c.CaptureWidth = int(fields[0])
	c.NoiseSigma = math.Float64frombits(fields[1])
	c.Resolution = int(fields[2])
	c.TotalFrames = int(fields[3])
	if r.off != len(r.buf) {
		return c, fmt.Errorf("camera: config has %d trailing bytes", len(r.buf)-r.off)
	}
	// Session.Detect hands the sigma to the detector as is: a NaN, infinite or
	// negative one is a corrupt config, not a noise level.
	if c.CaptureWidth <= 0 || c.Resolution <= 0 || c.TotalFrames < 0 ||
		!(c.NoiseSigma >= 0) || math.IsInf(c.NoiseSigma, 1) {
		return c, fmt.Errorf("camera: corrupt config %+v", c)
	}
	return c, nil
}

// Node is one camera bound to a scene and an intervention setting.
type Node struct {
	Video   *scene.Video
	Model   *detect.Model // determines native input and removal priors
	Setting degrade.Setting
	Energy  EnergyModel
}

// Stream captures, degrades, encodes and transmits the configured portion
// of the video over conn, returning the session report. The sequence is:
// MsgConfig, MsgBackground, one MsgFrame per sampled admissible frame,
// MsgEnd. The camera captures the corpus as the axis registry says the
// setting sees it (degrade.EffectiveVideo — the corpus itself when no
// pixel axis is set): frames are rendered at native resolution (capture),
// downsampled on-device, noised with the effective sensor noise, and
// shipped as compressed rasters — the receiver never sees the restricted
// frames or the native-resolution pixels.
//
//smokevet:ignore ctxflow: the frozen benchmark/stream_ingest.go calls Stream by this name; everything else calls StreamCtx
func (n *Node) Stream(conn *transport.Conn, stream *stats.Stream) (Report, error) { //smokevet:ignore reach: frozen benchmark hook: benchmark/stream_ingest.go streams through it
	return n.StreamCtx(context.Background(), conn, stream)
}

// StreamCtx is Stream with cancellation. Frames are captured, degraded and
// encoded ahead of the wire by a bounded pool of workers (runAhead) while
// this goroutine transmits the finished blocks in plan order, so the byte
// stream and the report are those of a one-frame-at-a-time camera. The
// downsampled session background (MsgBackground) seeds every frame, though
// ComputeJoules still prices a full capture and resample per frame. A
// cancelled context stops the workers before their next capture; every
// worker has exited when StreamCtx returns, whatever the outcome. A Send
// parked on a peer that stopped reading is released by closing the
// connection, as for any transport write.
func (n *Node) StreamCtx(ctx context.Context, conn *transport.Conn, stream *stats.Stream) (Report, error) {
	var report Report
	plan, err := degrade.ApplyCtx(ctx, n.Video, n.Model, n.Setting, stream)
	if err != nil {
		return report, fmt.Errorf("camera: applying interventions: %w", err)
	}
	seen := degrade.EffectiveVideo(n.Video, n.Setting)
	vcfg := &seen.Config
	cfg := Config{
		Name:         vcfg.Name,
		CaptureWidth: vcfg.Width,
		NoiseSigma:   float64(vcfg.Lighting.NoiseSigma),
		Resolution:   plan.Resolution,
		TotalFrames:  plan.Total,
	}
	if err := conn.Send(transport.MsgConfig, cfg.encode()); err != nil {
		return report, err
	}

	p := plan.Resolution
	bg := raster.Downsample(seen.Background(), p, p)
	bgBlock, err := codec.EncodeFrame(&codec.FrameRecord{Index: -1, Raster: bg})
	if err != nil {
		return report, err
	}
	if err := conn.Send(transport.MsgBackground, bgBlock); err != nil {
		return report, err
	}

	scale := float64(p) / float64(vcfg.Width)
	sigmaEff := float32(math.Max(0.004, float64(vcfg.Lighting.NoiseSigma)*scale))
	pixelsPerFrame := float64(vcfg.Width*vcfg.Height + p*p)
	err = runAhead(ctx, len(plan.Sampled),
		func(i int) ([]byte, error) { return captureFrame(seen, bg, plan.Sampled[i], sigmaEff) },
		func(block []byte) error {
			report.FramesCaptured++
			report.CaptureJoules += n.Energy.JoulesPerCapture
			report.ComputeJoules += n.Energy.JoulesPerPixel * pixelsPerFrame
			if err := conn.Send(transport.MsgFrame, block); err != nil {
				return err
			}
			report.FramesTransmitted++
			return nil
		})
	if err != nil {
		return report, err
	}
	if err := conn.Send(transport.MsgEnd, nil); err != nil {
		return report, err
	}
	report.BytesTransmitted = conn.BytesSent()
	report.TransmitJoules = n.Energy.JoulesPerByte * float64(report.BytesTransmitted)
	return report, nil
}

// captureFrame renders frame idx at native resolution (capture), resamples
// it to bg's size on-device, adds the effective sensor noise and encodes the
// frame block. bg is the session's downsampled background, so the frame
// starts as a copy of it and only the rows objects touch are rendered and
// resampled (scene.Video.ResampleObjectRowsInto) — the pixels of a full
// render and resample, at a fraction of the work. The raster is pooled
// scratch, back in the pool before the block is handed over.
func captureFrame(v *scene.Video, bg *raster.Image, idx int, sigmaEff float32) ([]byte, error) {
	img := raster.GetScratch(bg.W, bg.H)
	defer raster.PutScratch(img)
	copy(img.Pix, bg.Pix)
	v.ResampleObjectRowsInto(img, idx, raster.RectWH(0, 0, v.Config.Width, v.Config.Height))
	img.AddNoise(frameSeed(v.Config.Seed, idx, img.W), sigmaEff)
	return codec.EncodeFrame(&codec.FrameRecord{Index: idx, Raster: img})
}

// captureDepth bounds how many frames may be finished or in flight ahead
// of the one being transmitted: enough that no worker idles while the
// sender is parked in a Write, small enough that the encoded blocks held
// stay within a few MiB at the largest resolution.
const captureDepth = 16

// captured is one ring slot of runAhead: index i occupies slot
// i%captureDepth from its dispatch until the consumer is done with it.
type captured struct {
	block []byte
	err   error
	ready chan struct{} // buffered 1: the worker's hand-off to the consumer
}

// runAhead calls produce(i) for every i in [0, n) on up to
// parallel.Workers(0) goroutines and hands each result to consume on the
// calling goroutine, strictly in index order, with at most captureDepth
// indices dispatched and not yet consumed. The caller is the only
// coordinator: it dispatches index i+captureDepth only after consuming i,
// so a slot is never written while its previous occupant is still in use.
//
// The first failure in index order ends the run: produce's error for the
// index the consumer has reached, consume's own error, or ctx.Err() once
// ctx is cancelled (workers also stop claiming work then). Every worker
// has exited when runAhead returns.
func runAhead(ctx context.Context, n int, produce func(i int) ([]byte, error), consume func(block []byte) error) error {
	ctx, cancel := context.WithCancel(ctx)
	var (
		ring [captureDepth]captured
		jobs = make(chan int, captureDepth) // never more than the captureDepth indices in flight
		wg   sync.WaitGroup
	)
	defer wg.Wait()
	defer close(jobs)
	defer cancel()
	for i := range ring {
		ring[i].ready = make(chan struct{}, 1)
	}
	for w := min(parallel.Workers(0), captureDepth, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				slot := &ring[i%captureDepth]
				slot.block, slot.err = produce(i)
				slot.ready <- struct{}{}
			}
		}()
	}
	dispatched := 0
	for i := 0; i < n; i++ {
		for ; dispatched < n && dispatched < i+captureDepth; dispatched++ {
			jobs <- dispatched
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		slot := &ring[i%captureDepth]
		select {
		case <-slot.ready:
		case <-ctx.Done():
			return ctx.Err()
		}
		if slot.err != nil {
			return slot.err
		}
		if err := consume(slot.block); err != nil {
			return err
		}
	}
	return nil
}

// frameSeed mirrors the detect package's full-frame noise seeding so
// transmitted pixels match what DetectFrameFull would have seen locally.
func frameSeed(corpusSeed uint64, frame, p int) uint64 {
	z := corpusSeed ^ 0x66726d65
	for _, v := range []uint64{uint64(frame), uint64(p)} {
		z ^= v
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// ReceivedFrame is one frame as seen by the central processor.
type ReceivedFrame struct {
	Index  int
	Raster *raster.Image
}

// Session is the receiving side of a camera stream: the central query
// processor's view.
type Session struct {
	Config     Config
	Background *raster.Image
}

// ReceiveSession decodes one camera session from conn — MsgConfig,
// MsgBackground, MsgFrame…, MsgEnd — and returns it after MsgEnd. It is the
// wire protocol's one state machine: message order, the presence of pixels
// and the announced raster size are all enforced here. start, when non-nil,
// is called once the config is decoded (before any pixels arrive); frame,
// when non-nil, for every frame. A callback's error aborts the session and
// is returned as is.
//
// A connection that ends cleanly before the session's config returns io.EOF
// itself, so a receiver looping over back-to-back sessions can tell "no
// more sessions" from a stream cut mid-session, which is an error.
func ReceiveSession(conn *transport.Conn, start func(*Session) error, frame func(*Session, ReceivedFrame) error) (*Session, error) {
	var session *Session
	for {
		msgType, payload, err := conn.Receive()
		if err != nil {
			if err == io.EOF && session != nil {
				return nil, fmt.Errorf("camera: stream ended before MsgEnd")
			}
			return nil, err
		}
		switch msgType {
		case transport.MsgConfig:
			if session != nil {
				return nil, fmt.Errorf("camera: config message mid-session")
			}
			cfg, err := decodeConfig(payload)
			if err != nil {
				return nil, err
			}
			session = &Session{Config: cfg}
			if start != nil {
				if err := start(session); err != nil {
					return nil, err
				}
			}
		case transport.MsgBackground:
			if session == nil {
				return nil, fmt.Errorf("camera: background before config")
			}
			fr, err := session.decodePixels("background", payload)
			if err != nil {
				return nil, err
			}
			session.Background = fr.Raster
		case transport.MsgFrame:
			if session == nil || session.Background == nil {
				return nil, fmt.Errorf("camera: frame before config/background")
			}
			fr, err := session.decodePixels("frame", payload)
			if err != nil {
				return nil, err
			}
			if frame != nil {
				if err := frame(session, ReceivedFrame{Index: fr.Index, Raster: fr.Raster}); err != nil {
					return nil, err
				}
			}
		case transport.MsgEnd:
			if session == nil {
				return nil, fmt.Errorf("camera: end before config")
			}
			return session, nil
		default:
			return nil, fmt.Errorf("camera: unknown message type %d", msgType)
		}
	}
}

// decodePixels decodes a background or frame payload and rejects a raster
// that is not the Resolution x Resolution square the session's config
// announced. The wire lets a peer put any dimensions in a frame record; the
// detector, handed a frame and a background of different sizes, panics.
func (s *Session) decodePixels(kind string, payload []byte) (*codec.FrameRecord, error) {
	fr, err := codec.DecodeFrame(payload)
	if err != nil {
		return nil, err
	}
	if fr.Raster == nil {
		return nil, fmt.Errorf("camera: %s message without pixels", kind)
	}
	if p := s.Config.Resolution; fr.Raster.W != p || fr.Raster.H != p {
		return nil, fmt.Errorf("camera: %s raster is %dx%d, session announced %dx%d", kind, fr.Raster.W, fr.Raster.H, p, p)
	}
	return fr, nil
}

// Detect runs the model on a received frame against the session's
// transmitted background — central-side inference on degraded pixels only.
//
//smokevet:ignore reach: central detection's reference; TestCentralDetectionMatchesLocal pins it until the receiver detects what it receives (ROADMAP item 6)
func (s *Session) Detect(m *detect.Model, fr ReceivedFrame) []detect.Detection {
	return m.DetectPixels(fr.Raster, s.Background, s.Config.NoiseSigma, s.Config.CaptureWidth, uint64(fr.Index))
}

// sliceReader is a tiny cursor over a payload slice.
type sliceReader struct {
	buf []byte
	off int
}

func newSliceReader(buf []byte) *sliceReader { return &sliceReader{buf: buf} }

func (r *sliceReader) ReadByte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *sliceReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(r)
}

func (r *sliceReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, io.ErrUnexpectedEOF
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}
