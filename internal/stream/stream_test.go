package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"smokescreen/internal/camera"
	"smokescreen/internal/codec"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// streamRun drives one camera session per node through a receiver over
// Loopback's in-process pipe and returns the stream's outcome.
func streamRun(t *testing.T, recv *Receiver, nodes []*camera.Node, ctx context.Context) error {
	t.Helper()
	_, err := Loopback(ctx, recv, nodes, len(nodes), 100)
	return err
}

func smallNode(t testing.TB, v *scene.Video, f float64, p int) *camera.Node {
	t.Helper()
	return &camera.Node{
		Video:   v,
		Model:   detect.YOLOv4Sim(),
		Setting: degrade.Setting{SampleFraction: f, Resolution: p},
		Energy:  camera.DefaultEnergyModel(),
	}
}

func TestWindowedProfilesSoakTumbling(t *testing.T) {
	// The acceptance soak, in-process: one camera session over the small
	// corpus at span 100 produces 12 tumbling windows (>= 10), each with
	// a bounded-duration estimate, and Verify cross-checks every
	// window's incremental state against full regeneration.
	v := dataset.MustLoad("small")
	var windows []WindowResult
	recv, err := New(Config{
		Model:      detect.YOLOv4Sim(),
		Class:      scene.Car,
		WindowSpan: 100,
		Sources:    []*scene.Video{v},
		Verify:     true,
		OnWindow:   func(res WindowResult) { windows = append(windows, res) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := streamRun(t, recv, []*camera.Node{smallNode(t, v, 0.2, 160)}, context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(windows) != 12 {
		t.Fatalf("emitted %d windows, want 12", len(windows))
	}
	totalFrames := 0
	for i, res := range windows {
		if res.Seq != i || res.Lo != i*100 || res.Hi != i*100+100 {
			t.Fatalf("window %d bounds %+v", i, res)
		}
		if res.Estimate.N != 100 || res.Estimate.Sample != res.Frames {
			t.Fatalf("window %d estimate %+v with %d frames", i, res.Estimate, res.Frames)
		}
		if res.Frames <= 0 || res.Frames > 100 {
			t.Fatalf("window %d holds %d frames", i, res.Frames)
		}
		if res.Estimate.ErrBound < 0 || res.Estimate.ErrBound > 1 {
			t.Fatalf("window %d bound %v", i, res.Estimate.ErrBound)
		}
		totalFrames += res.Frames
	}
	st := recv.Status()
	if !st.Done || st.Windows != 12 || st.Sessions != 1 {
		t.Fatalf("status %+v", st)
	}
	if st.Frames != totalFrames || st.Frames != 240 {
		t.Fatalf("status frames %d, windows carried %d (want 240)", st.Frames, totalFrames)
	}
	if st.LastWindow == nil || st.LastWindow.Seq != 11 {
		t.Fatalf("last window %+v", st.LastWindow)
	}
}

func TestSlidingWindowsVerifyAgainstFullRegeneration(t *testing.T) {
	// Overlapping windows (stride < span): frames persist across window
	// emissions instead of being re-detected, and every window still
	// matches a from-scratch recomputation bit-for-bit.
	v := dataset.MustLoad("small")
	var windows []WindowResult
	recv, err := New(Config{
		Model:        detect.YOLOv4Sim(),
		Class:        scene.Car,
		WindowSpan:   200,
		WindowStride: 100,
		Sources:      []*scene.Video{v},
		Verify:       true,
		OnWindow:     func(res WindowResult) { windows = append(windows, res) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := streamRun(t, recv, []*camera.Node{smallNode(t, v, 0.1, 160)}, context.Background()); err != nil {
		t.Fatal(err)
	}
	// Windows [0,200), [100,300), ... [1000,1200): 11 of them.
	if len(windows) != 11 {
		t.Fatalf("emitted %d windows, want 11", len(windows))
	}
	for i, res := range windows {
		if res.Lo != i*100 || res.Hi != i*100+200 || res.Estimate.N != 200 {
			t.Fatalf("window %d bounds %+v", i, res)
		}
	}
}

func TestMultiSessionLoopExtendsTimeline(t *testing.T) {
	// A camera that loops its corpus models unbounded video: stream
	// positions keep growing across sessions and windows keep coming.
	v := dataset.MustLoad("small")
	recv, err := New(Config{
		Model:      detect.YOLOv4Sim(),
		Class:      scene.Car,
		WindowSpan: 300,
		Sources:    []*scene.Video{v},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*camera.Node{smallNode(t, v, 0.05, 160), smallNode(t, v, 0.05, 160)}
	if err := streamRun(t, recv, nodes, context.Background()); err != nil {
		t.Fatal(err)
	}
	st := recv.Status()
	if st.Sessions != 2 {
		t.Fatalf("sessions = %d", st.Sessions)
	}
	// 2400 positions at span 300: all 8 windows complete at clean end.
	if st.Windows != 8 {
		t.Fatalf("windows = %d, want 8", st.Windows)
	}
	if st.LastWindow.Hi != 2400 {
		t.Fatalf("last window %+v", st.LastWindow)
	}
}

// TestLoopbackClampsNodesAndSurfacesCameraFailure: more loops than nodes
// replay the last node, and a camera that fails on its own ends the stream
// with its error instead of leaving the receiver parked on the pipe.
func TestLoopbackClampsNodesAndSurfacesCameraFailure(t *testing.T) {
	v := dataset.MustLoad("small")
	cfg := Config{Model: detect.YOLOv4Sim(), Class: scene.Car, WindowSpan: 300, Sources: []*scene.Video{v}}
	recv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sent, err := Loopback(context.Background(), recv, []*camera.Node{smallNode(t, v, 0.05, 160)}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st := recv.Status(); st.Sessions != 3 || sent.FramesTransmitted != st.Frames || sent.BytesTransmitted == 0 {
		t.Fatalf("3 loops over one node: status %+v, camera sent %+v", st, sent)
	}

	// Sampling every frame after removing the class most frames contain
	// exceeds the admissible pool: the second session cannot be planned.
	broken := smallNode(t, v, 1, 160)
	broken.Setting.Restricted = []scene.Class{scene.Person}
	if recv, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	_, err = Loopback(context.Background(), recv, []*camera.Node{smallNode(t, v, 0.05, 160), broken}, 2, 7)
	if err == nil || !strings.Contains(err.Error(), "camera: applying interventions") {
		t.Fatalf("broken camera: Loopback returned %v, want the camera's planning error", err)
	}
	if st := recv.Status(); st.Sessions != 1 {
		t.Fatalf("sessions before the failure = %d, want 1", st.Sessions)
	}
}

// TestLoopbackReportsEnergy: the stream's report is the camera's — capture
// and compute joules summed over the sessions, bytes and the radio energy
// priced from them taken from the connection's cumulative count.
func TestLoopbackReportsEnergy(t *testing.T) {
	v := dataset.MustLoad("small")
	node := smallNode(t, v, 0.05, 160)
	run := func(loops int) camera.Report {
		recv, err := New(Config{Model: detect.YOLOv4Sim(), Class: scene.Car, WindowSpan: 300, Sources: []*scene.Video{v}})
		if err != nil {
			t.Fatal(err)
		}
		sent, err := Loopback(context.Background(), recv, []*camera.Node{node}, loops, 7)
		if err != nil {
			t.Fatal(err)
		}
		return sent
	}
	one, two := run(1), run(2)
	if one.CaptureJoules <= 0 || one.ComputeJoules <= 0 {
		t.Fatalf("one session reports no energy: %+v", one)
	}
	if two.CaptureJoules != 2*one.CaptureJoules || two.ComputeJoules != 2*one.ComputeJoules {
		t.Errorf("two sessions: capture %v J, compute %v J; want twice one session's %v J, %v J",
			two.CaptureJoules, two.ComputeJoules, one.CaptureJoules, one.ComputeJoules)
	}
	if want := node.Energy.JoulesPerByte * float64(two.BytesTransmitted); two.TransmitJoules != want || want == 0 {
		t.Errorf("radio energy %v J, want JoulesPerByte x %d bytes = %v J", two.TransmitJoules, two.BytesTransmitted, want)
	}
	if two.BytesTransmitted <= one.BytesTransmitted {
		t.Errorf("bytes are cumulative per connection: two sessions sent %d, one sent %d", two.BytesTransmitted, one.BytesTransmitted)
	}
}

func TestDriftEventOnInjectedShift(t *testing.T) {
	// Loop 1 streams the profiled corpus; loop 2 streams a same-length
	// corpus whose traffic regime shifted (tripled car rate) — the
	// scene-change the drift detector exists to flag. Windows from loop
	// 1 must stay under the threshold, and the shift must raise
	// DriftEvents. The threshold sits above the within-corpus window
	// variation (short windows of a regime-structured corpus diverge
	// ~0.3-0.55 from the corpus-wide histogram; see DESIGN.md §5.4 on
	// calibration).
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	baseline, err := CorpusBaseline(context.Background(), v, m, scene.Car, 160)
	if err != nil {
		t.Fatal(err)
	}
	shiftedCfg := dataset.SmallConfig()
	shiftedCfg.Name = "small-shifted"
	shiftedCfg.CarRate *= 3
	shifted, err := scene.Generate(shiftedCfg)
	if err != nil {
		t.Fatal(err)
	}
	var windows []WindowResult
	var drifts []DriftEvent
	recv, err := New(Config{
		Model:          m,
		Class:          scene.Car,
		WindowSpan:     300,
		Sources:        []*scene.Video{v, shifted},
		Baseline:       baseline,
		DriftThreshold: 0.65,
		OnWindow:       func(res WindowResult) { windows = append(windows, res) },
		OnDrift:        func(ev DriftEvent) { drifts = append(drifts, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*camera.Node{smallNode(t, v, 0.4, 160), smallNode(t, shifted, 0.4, 160)}
	if err := streamRun(t, recv, nodes, context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(windows) != 8 {
		t.Fatalf("emitted %d windows, want 8", len(windows))
	}
	for _, res := range windows[:4] {
		if res.Drifted {
			t.Fatalf("clean window %d flagged as drifted (divergence %.3f)", res.Seq, res.Divergence)
		}
	}
	if len(drifts) == 0 {
		divs := make([]float64, 0, len(windows))
		for _, res := range windows {
			divs = append(divs, res.Divergence)
		}
		t.Fatalf("injected shift raised no drift events; window divergences: %v", divs)
	}
	for _, ev := range drifts {
		if ev.Lo < 1200 {
			t.Fatalf("drift event %+v on a clean-corpus window", ev)
		}
		if ev.Divergence <= ev.Threshold {
			t.Fatalf("drift event below threshold: %+v", ev)
		}
	}
	if st := recv.Status(); st.Drifts != len(drifts) || st.LastDrift == nil {
		t.Fatalf("status drift accounting %+v vs %d events", recv.Status(), len(drifts))
	}
}

func TestCancelMidStreamDropsPartialWindow(t *testing.T) {
	// Cancelling after the third window must stop the run with the
	// context's error and emit nothing further — the partially filled
	// fourth window is never persisted.
	v := dataset.MustLoad("small")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted []WindowResult
	recv, err := New(Config{
		Model:      detect.YOLOv4Sim(),
		Class:      scene.Car,
		WindowSpan: 100,
		Sources:    []*scene.Video{v},
		OnWindow: func(res WindowResult) {
			emitted = append(emitted, res)
			if len(emitted) == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = streamRun(t, recv, []*camera.Node{smallNode(t, v, 0.3, 160)}, ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want context.Canceled", err)
	}
	if len(emitted) != 3 {
		t.Fatalf("emitted %d windows after cancellation, want 3", len(emitted))
	}
	st := recv.Status()
	if !st.Done || st.Windows != 3 {
		t.Fatalf("status %+v", st)
	}
	if st.LastWindow.Seq != 2 {
		t.Fatalf("last window %+v leaked past cancellation", st.LastWindow)
	}
}

func TestStreamTotalsAdvance(t *testing.T) {
	before := Totals()
	v := dataset.MustLoad("small")
	recv, err := New(Config{
		Model:      detect.YOLOv4Sim(),
		Class:      scene.Car,
		WindowSpan: 600,
		Sources:    []*scene.Video{v},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := streamRun(t, recv, []*camera.Node{smallNode(t, v, 0.02, 160)}, context.Background()); err != nil {
		t.Fatal(err)
	}
	after := Totals()
	if after.Frames-before.Frames != 24 {
		t.Fatalf("frame totals advanced by %d, want 24", after.Frames-before.Frames)
	}
	if after.Windows-before.Windows != 2 {
		t.Fatalf("window totals advanced by %d, want 2", after.Windows-before.Windows)
	}
}

func TestConfigValidation(t *testing.T) {
	m := detect.YOLOv4Sim()
	v := dataset.MustLoad("small")
	cases := []Config{
		{Class: scene.Car, WindowSpan: 10, Sources: []*scene.Video{v}},             // no model
		{Model: m, WindowSpan: 0, Sources: []*scene.Video{v}},                      // no span
		{Model: m, WindowSpan: 10, WindowStride: 20, Sources: []*scene.Video{v}},   // stride > span
		{Model: m, WindowSpan: 10},                                                 // no sources
		{Model: m, WindowSpan: 10, Sources: []*scene.Video{v}, DriftThreshold: -1}, // bad threshold
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestBaselineDivergence(t *testing.T) {
	b, err := NewBaseline([]float64{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := b.Divergence([]float64{0, 0, 1, 1}); d != 0 {
		t.Fatalf("identical distribution diverges %v", d)
	}
	if d := b.Divergence([]float64{2, 2}); d != 1 {
		t.Fatalf("disjoint distribution diverges %v, want 1", d)
	}
	if d := b.Divergence([]float64{0, 0, 0, 0}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("half-moved distribution diverges %v, want 0.5", d)
	}
	if b.Mean != 0.5 {
		t.Fatalf("baseline mean %v", b.Mean)
	}
	if _, err := NewBaseline(nil); err == nil {
		t.Fatal("empty baseline accepted")
	}
}

// wireConfig renders a MsgConfig payload by hand (the camera package keeps
// its encoder private): name, capture width, noise sigma bits, resolution,
// total frames.
func wireConfig(name string, captureWidth, resolution, totalFrames int) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(captureWidth))
	buf = binary.AppendUvarint(buf, math.Float64bits(0.01))
	buf = binary.AppendUvarint(buf, uint64(resolution))
	return binary.AppendUvarint(buf, uint64(totalFrames))
}

// wireRaster renders a frame record carrying a flat w x h raster.
func wireRaster(t *testing.T, index, w, h int) []byte {
	t.Helper()
	img := raster.New(w, h)
	for i := range img.Pix {
		img.Pix[i] = 0.5
	}
	block, err := codec.EncodeFrame(&codec.FrameRecord{Index: index, Raster: img})
	if err != nil {
		t.Fatal(err)
	}
	return block
}

func TestWirePixelsRejectsMismatchedRasters(t *testing.T) {
	// Any peer of the ingest listener chooses the dimensions in its frame
	// records. The receiver detects by replay, not on these rasters, but it
	// still decodes and validates every one (camera.ReceiveSession): a raster
	// that is not what the session announced is a wire error that ends the
	// run, never a frame folded into a window.
	type msg struct {
		typ     byte
		payload []byte
	}
	v := dataset.MustLoad("small")
	cfg := msg{transport.MsgConfig, wireConfig("hostile", 320, 160, v.NumFrames())}
	bg := func(w, h int) msg { return msg{transport.MsgBackground, wireRaster(t, 0, w, h)} }
	frame := func(i, w, h int) msg { return msg{transport.MsgFrame, wireRaster(t, i, w, h)} }
	cases := []struct {
		name string
		msgs []msg
		want string
	}{
		{"frame", []msg{cfg, bg(160, 160), frame(0, 96, 96)}, "frame raster is 96x96"},
		{"non-square frame", []msg{cfg, bg(160, 160), frame(0, 160, 100)}, "frame raster is 160x100"},
		{"background", []msg{cfg, bg(96, 96), frame(0, 160, 160)}, "background raster is 96x96"},
		{"background re-sent", []msg{cfg, bg(160, 160), frame(0, 160, 160), bg(96, 96), frame(1, 96, 96)}, "background raster is 96x96"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wire bytes.Buffer
			sender := transport.New(&wire)
			for _, m := range tc.msgs {
				if err := sender.Send(m.typ, m.payload); err != nil {
					t.Fatal(err)
				}
			}
			recv, err := New(Config{Model: detect.YOLOv4Sim(), Class: scene.Car, WindowSpan: 10, Sources: []*scene.Video{v}})
			if err != nil {
				t.Fatal(err)
			}
			err = recv.Run(context.Background(), transport.New(&wire))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// oneWay adapts a reader and a writer to transport.New.
type oneWay struct {
	io.Reader
	io.Writer
}

// TestReceiverReadsTheColumn: a received frame's count is read from the
// column store, not re-detected. With the drift baseline built — the column
// at the transmitted resolution — a random-only stream makes no detector
// invocation between the baseline and the end of the run; without one, or
// through a pixel axis (a view no baseline covers), each (view, frame,
// resolution) is detected once however many sessions deliver it, and a
// replay of the same stream detects nothing. The windows are the ones the
// receiver emitted when it ran Model.DetectFrame for every frame (digests
// pinned from that tree), and Verify, which still does, passes on each.
func TestReceiverReadsTheColumn(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	const loops, seed, p = 2, 100, 160
	rows := []struct {
		name    string
		setting degrade.Setting
		drift   bool
		digest  string
	}{
		{"random-only", degrade.Setting{SampleFraction: 0.2, Resolution: p}, true, "5c75907b"},
		{"disable_drift", degrade.Setting{SampleFraction: 0.2, Resolution: p}, false, "089c01bf"},
		{"NOISE 0.1", degrade.Setting{SampleFraction: 0.2, Resolution: p, NoiseSigma: 0.1}, true, "085bc00e"},
		{"BLUR 9", degrade.Setting{SampleFraction: 0.2, Resolution: p, MotionBlur: 9}, true, "1c913b98"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			detect.ResetCaches() // exact invocation counts: no column filled before this row
			node := &camera.Node{Video: v, Model: m, Setting: row.setting, Energy: camera.DefaultEnergyModel()}
			cfg := Config{Model: m, Class: scene.Car, WindowSpan: 200, WindowStride: 100,
				Sources: []*scene.Video{degrade.EffectiveVideo(v, row.setting)}}
			if row.drift {
				base, err := CorpusBaseline(context.Background(), v, m, scene.Car, p)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Baseline = base
			}
			// The frames the sessions deliver: Loopback seeds session i with seed+i.
			distinct := map[int]bool{}
			for i := 0; i < loops; i++ {
				plan, err := degrade.ApplyCtx(context.Background(), v, m, row.setting, stats.NewStream(seed+uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range plan.Sampled {
					distinct[f] = true
				}
			}
			run := func(verify bool) ([]WindowResult, int64) {
				t.Helper()
				var windows []WindowResult
				c := cfg
				c.Verify = verify
				c.OnWindow = func(res WindowResult) { windows = append(windows, res) }
				recv, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				before := detect.Invocations()
				if _, err := Loopback(context.Background(), recv, []*camera.Node{node}, loops, seed); err != nil {
					t.Fatal(err)
				}
				return windows, detect.Invocations() - before
			}
			windows, detected := run(false)
			want := int64(len(distinct))
			if cfg.Baseline != nil && cfg.Sources[0] == v {
				want = 0
			}
			if detected != want {
				t.Errorf("%d detector invocations over %d distinct frames, want %d", detected, len(distinct), want)
			}
			if _, again := run(false); again != 0 {
				t.Errorf("a replay of the same stream made %d detector invocations, want 0", again)
			}
			verified, _ := run(true)
			if !slices.Equal(verified, windows) {
				t.Errorf("Verify run's windows differ:\n%v\n%v", verified, windows)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", windows)))
			if got := hex.EncodeToString(sum[:4]); got != row.digest {
				t.Errorf("windows digest %s, pinned %s (%d windows)", got, row.digest, len(windows))
			}
		})
	}
}

// BenchmarkReceiver is the receiver alone: the repository benchmark's
// session (small, f = 0.2, p = 160, windows of 200 sliding by 100, drift on)
// captured once as wire bytes and replayed from memory every iteration, so
// framing, decode, the column read and the window fold are all it times.
func BenchmarkReceiver(b *testing.B) {
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	var wire bytes.Buffer
	if _, err := smallNode(b, v, 0.2, 160).StreamCtx(ctx, transport.New(oneWay{strings.NewReader(""), &wire}), stats.NewStream(1000)); err != nil {
		b.Fatal(err)
	}
	base, err := CorpusBaseline(ctx, v, m, scene.Car, 160)
	if err != nil {
		b.Fatal(err)
	}
	frames := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recv, err := New(Config{Model: m, Class: scene.Car, WindowSpan: 200, WindowStride: 100, Sources: []*scene.Video{v}, Baseline: base})
		if err != nil {
			b.Fatal(err)
		}
		if err := recv.Run(ctx, transport.New(oneWay{bytes.NewReader(wire.Bytes()), io.Discard})); err != nil {
			b.Fatal(err)
		}
		frames += recv.Status().Frames
	}
	b.ReportMetric(float64(frames)/b.Elapsed().Seconds(), "frames/s")
}
