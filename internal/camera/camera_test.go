package camera

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"smokescreen/internal/codec"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// runSession streams the setting over an in-process pipe and returns the
// camera report, the receiver session and per-frame car counts computed by
// central-side detection on the transmitted pixels.
func runSession(t *testing.T, setting degrade.Setting) (Report, *Session, map[int]int) {
	t.Helper()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	node := &Node{Video: v, Model: m, Setting: setting, Energy: DefaultEnergyModel()}

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	reportCh := make(chan Report, 1)
	errCh := make(chan error, 1)
	go func() {
		report, err := node.Stream(transport.New(client), stats.NewStream(11))
		reportCh <- report
		errCh <- err
	}()

	counts := map[int]int{}
	session, err := ReceiveSession(transport.New(server), nil, func(s *Session, fr ReceivedFrame) error {
		counts[fr.Index] = detect.CountClass(s.Detect(m, fr), scene.Car)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return <-reportCh, session, counts
}

func TestStreamEndToEnd(t *testing.T) {
	setting := degrade.Setting{SampleFraction: 0.05, Resolution: 160}
	report, session, counts := runSession(t, setting)

	v := dataset.MustLoad("small")
	wantFrames := int(float64(v.NumFrames())*0.05 + 0.5)
	if report.FramesTransmitted != wantFrames {
		t.Fatalf("transmitted %d frames, want %d", report.FramesTransmitted, wantFrames)
	}
	if len(counts) != wantFrames {
		t.Fatalf("received %d frames", len(counts))
	}
	if session.Config.Resolution != 160 || session.Config.CaptureWidth != v.Config.Width {
		t.Fatalf("session config %+v", session.Config)
	}
	if session.Config.TotalFrames != v.NumFrames() {
		t.Fatalf("TotalFrames = %d", session.Config.TotalFrames)
	}
	if report.BytesTransmitted <= 0 || report.TotalJoules() <= 0 {
		t.Fatal("accounting empty")
	}
	if report.CaptureJoules <= 0 || report.ComputeJoules <= 0 || report.TransmitJoules <= 0 {
		t.Fatalf("energy breakdown incomplete: %+v", report)
	}
}

func TestCentralDetectionMatchesLocal(t *testing.T) {
	// Counts computed on transmitted pixels must broadly agree with the
	// local full-frame reference on the same frames — the reference being
	// the corpus as the axis registry says the setting sees it, so a pixel
	// axis (the NOISE row) must reach the wire, not just the setting line.
	for _, setting := range []degrade.Setting{
		{SampleFraction: 0.04, Resolution: 320},
		{SampleFraction: 0.04, Resolution: 320, NoiseSigma: 0.3},
	} {
		t.Run(setting.String(), func(t *testing.T) {
			_, _, counts := runSession(t, setting)
			v := degrade.EffectiveVideo(dataset.MustLoad("small"), setting)
			m := detect.YOLOv4Sim()
			var transmittedSum, localSum, absDiff float64
			for idx, got := range counts {
				local := detect.CountClass(m.DetectFrameFull(v, idx, 320), scene.Car)
				transmittedSum += float64(got)
				localSum += float64(local)
				absDiff += math.Abs(float64(got - local))
			}
			if transmittedSum == 0 && localSum == 0 {
				t.Fatal("no detections at all")
			}
			n := float64(len(counts))
			if absDiff/n > 0.5 {
				t.Fatalf("mean per-frame deviation %v between wire and local detection", absDiff/n)
			}
		})
	}
}

func TestDegradationSavesBandwidthAndEnergy(t *testing.T) {
	full, _, _ := runSession(t, degrade.Setting{SampleFraction: 0.05, Resolution: 320})
	degraded, _, _ := runSession(t, degrade.Setting{SampleFraction: 0.02, Resolution: 96})
	if degraded.BytesTransmitted*2 >= full.BytesTransmitted {
		t.Fatalf("degradation saved too little bandwidth: %d vs %d", degraded.BytesTransmitted, full.BytesTransmitted)
	}
	if degraded.TotalJoules() >= full.TotalJoules() {
		t.Fatalf("degradation did not save energy: %v vs %v", degraded.TotalJoules(), full.TotalJoules())
	}
}

func TestImageRemovalNeverTransmitsRestricted(t *testing.T) {
	_, _, counts := runSession(t, degrade.Setting{SampleFraction: 0.03, Resolution: 320, Restricted: []scene.Class{scene.Face}})
	v := dataset.MustLoad("small")
	present, err := outputs.Presence(context.Background(), v, scene.Face)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range counts {
		if present[idx] {
			t.Fatalf("restricted frame %d left the camera", idx)
		}
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := Config{Name: "cam-1", CaptureWidth: 640, NoiseSigma: 0.0325, Resolution: 128, TotalFrames: 1234}
	got, err := decodeConfig(cfg.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip %+v != %+v", got, cfg)
	}
}

func TestDecodeConfigRejectsCorruption(t *testing.T) {
	cfg := Config{Name: "c", CaptureWidth: 640, NoiseSigma: 0.02, Resolution: 128, TotalFrames: 10}
	good := cfg.encode()
	for cut := 0; cut < len(good)-1; cut++ {
		if _, err := decodeConfig(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	withSigma := func(sigma float64) []byte {
		c := cfg
		c.NoiseSigma = sigma
		return c.encode()
	}
	for name, payload := range map[string][]byte{
		"trailing byte": append(cfg.encode(), 0),
		"sigma NaN":     withSigma(math.NaN()),
		"sigma +Inf":    withSigma(math.Inf(1)),
		"sigma -0.01":   withSigma(-0.01),
	} {
		if c, err := decodeConfig(payload); err == nil {
			t.Errorf("%s: accepted as %+v", name, c)
		}
	}
	if _, err := decodeConfig(withSigma(0)); err != nil {
		t.Errorf("sigma 0 refused: %v", err)
	}
}

func TestReceiveProtocolErrors(t *testing.T) {
	// Frame before config must be rejected.
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		c := transport.New(client)
		_ = c.Send(transport.MsgFrame, []byte{0})
	}()
	if _, err := ReceiveSession(transport.New(server), nil, nil); err == nil {
		t.Fatal("frame before config accepted")
	}
}

func TestStreamRejectsInfeasibleSetting(t *testing.T) {
	v := dataset.MustLoad("small")
	node := &Node{
		Video:   v,
		Model:   detect.YOLOv4Sim(),
		Setting: degrade.Setting{SampleFraction: 1, Restricted: []scene.Class{scene.Person}},
		Energy:  DefaultEnergyModel(),
	}
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		c := transport.New(server)
		for {
			if _, _, err := c.Receive(); err != nil {
				return
			}
		}
	}()
	if _, err := node.Stream(transport.New(client), stats.NewStream(1)); err == nil {
		t.Fatal("infeasible setting accepted")
	}
}

func TestReceiveSurvivesPeerDisconnect(t *testing.T) {
	// The camera dies mid-stream (after config but before MsgEnd); ReceiveSession
	// must return an error, not hang or fabricate a session.
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		conn := transport.New(client)
		cfg := Config{Name: "dying", CaptureWidth: 320, NoiseSigma: 0.01, Resolution: 160, TotalFrames: 100}
		_ = conn.Send(transport.MsgConfig, cfg.encode())
		client.Close() // abrupt death before the background and frames
	}()
	_, err := ReceiveSession(transport.New(server), nil, nil)
	if err == nil {
		t.Fatal("ReceiveSession succeeded on a dropped stream")
	}
}

func TestReceiveRejectsUnknownMessageType(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		c := transport.New(client)
		cfg := Config{Name: "x", CaptureWidth: 320, NoiseSigma: 0.01, Resolution: 160, TotalFrames: 10}
		_ = c.Send(transport.MsgConfig, cfg.encode())
		_ = c.Send(99, []byte{1, 2, 3})
	}()
	if _, err := ReceiveSession(transport.New(server), nil, nil); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

func TestReceiveSessionBoundaries(t *testing.T) {
	// ReceiveSession is the decoder stream.Receiver loops over: back-to-back
	// sessions decode one call each, a clean end between sessions is io.EOF
	// itself, and the same end (or a second config) mid-session is an error.
	cfg := Config{Name: "loop", CaptureWidth: 320, NoiseSigma: 0.01, Resolution: 8, TotalFrames: 4}
	img := raster.New(8, 8)
	pixels, err := codec.EncodeFrame(&codec.FrameRecord{Index: 1, Raster: img})
	if err != nil {
		t.Fatal(err)
	}
	type msg struct {
		typ     byte
		payload []byte
	}
	config, bg, frame, end := msg{transport.MsgConfig, cfg.encode()}, msg{transport.MsgBackground, pixels}, msg{transport.MsgFrame, pixels}, msg{transport.MsgEnd, nil}
	cases := []struct {
		name     string
		msgs     []msg
		sessions int    // sessions decoded before the terminal error
		want     string // "" means the terminal error is io.EOF itself
	}{
		{"two sessions, clean end", []msg{config, bg, frame, end, config, bg, end}, 2, ""},
		{"empty stream", nil, 0, ""},
		{"cut mid-session", []msg{config, bg, frame}, 0, "stream ended before MsgEnd"},
		{"cut after a session", []msg{config, bg, end, config}, 1, "stream ended before MsgEnd"},
		{"config mid-session", []msg{config, bg, config}, 0, "config message mid-session"},
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
			conn := transport.New(&wire)
			sessions, starts, frames := 0, 0, 0
			for {
				_, err := ReceiveSession(conn, func(s *Session) error {
					if s.Config != cfg || s.Background != nil {
						t.Errorf("start saw %+v, want the bare config", s)
					}
					starts++
					return nil
				}, func(*Session, ReceivedFrame) error { frames++; return nil })
				if err == nil {
					sessions++
					continue
				}
				if sessions != tc.sessions {
					t.Fatalf("%d sessions decoded before %v, want %d", sessions, err, tc.sessions)
				}
				if tc.want == "" && err != io.EOF || tc.want != "" && !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("terminal error %v, want %q (empty = io.EOF)", err, tc.want)
				}
				break
			}
			if tc.name == "two sessions, clean end" && (starts != 2 || frames != 1) {
				t.Fatalf("%d starts, %d frames, want 2 and 1", starts, frames)
			}
		})
	}
}

func TestReportTotalJoules(t *testing.T) {
	r := Report{CaptureJoules: 1, ComputeJoules: 2, TransmitJoules: 3}
	if r.TotalJoules() != 6 {
		t.Fatalf("TotalJoules = %v", r.TotalJoules())
	}
}

func TestDefaultEnergyModelPositive(t *testing.T) {
	e := DefaultEnergyModel()
	if e.JoulesPerByte <= 0 || e.JoulesPerCapture <= 0 || e.JoulesPerPixel <= 0 {
		t.Fatalf("energy model has non-positive rates: %+v", e)
	}
}

func TestReceiveRejectsMismatchedRasters(t *testing.T) {
	// A peer announcing 160x160 and then shipping a raster of another size
	// used to get as far as Session.Detect, where the detector panics on a
	// frame/background size mismatch. ReceiveSession refuses it on the wire.
	cfg := Config{Name: "hostile", CaptureWidth: 320, NoiseSigma: 0.01, Resolution: 160, TotalFrames: 100}
	type msg struct {
		typ  byte
		w, h int
	}
	cases := []struct {
		name string
		msgs []msg
		want string
	}{
		{"frame", []msg{{transport.MsgBackground, 160, 160}, {transport.MsgFrame, 96, 96}}, "frame raster is 96x96"},
		{"background", []msg{{transport.MsgBackground, 96, 96}, {transport.MsgFrame, 160, 160}}, "background raster is 96x96"},
		{"background re-sent", []msg{
			{transport.MsgBackground, 160, 160}, {transport.MsgFrame, 160, 160},
			{transport.MsgBackground, 160, 96}, {transport.MsgFrame, 160, 96},
		}, "background raster is 160x96"},
	}
	m := detect.YOLOv4Sim()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wire bytes.Buffer
			sender := transport.New(&wire)
			if err := sender.Send(transport.MsgConfig, cfg.encode()); err != nil {
				t.Fatal(err)
			}
			for i, mm := range tc.msgs {
				img := raster.New(mm.w, mm.h)
				for i := range img.Pix {
					img.Pix[i] = 0.5
				}
				block, err := codec.EncodeFrame(&codec.FrameRecord{Index: i, Raster: img})
				if err != nil {
					t.Fatal(err)
				}
				if err := sender.Send(mm.typ, block); err != nil {
					t.Fatal(err)
				}
			}
			_, err := ReceiveSession(transport.New(&wire), nil, func(s *Session, fr ReceivedFrame) error {
				s.Detect(m, fr)
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReceiveSession = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}
