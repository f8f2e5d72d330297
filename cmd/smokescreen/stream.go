package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"strings"
	"time"

	"smokescreen/internal/camera"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
	"smokescreen/internal/server"
	"smokescreen/internal/stats"
	"smokescreen/internal/stream"
	"smokescreen/internal/transport"
)

// cmdStream runs camera-to-processor streaming in one process: the camera
// degrades on-device and transmits, the central processor detects on what
// arrives. Two modes:
//
//   - One-shot (default): a single session over a real TCP loopback
//     connection (-addr), with a running any-time estimate and the
//     camera's byte/energy accounting.
//
//     smokescreen stream -dataset small -sample 0.05 -resolution 160 -remove face
//
//   - Windowed (-window W): the live-ingest subsystem — the camera loops
//     its corpus -loops times (unbounded video), the receiver maintains
//     windowed profiles with incremental refresh and flags drift against
//     the profiled corpus baseline. ^C cancels cleanly: in-flight
//     detection stops and no partial window is reported.
//
//     smokescreen stream -dataset small -window 300 -stride 150 -loops 3 -sample 0.2
//
// With -remote the windowed mode runs inside a smokescreend daemon
// instead (POST /v1/streams), and this command just watches it.
func cmdStream(args []string) {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	var (
		datasetName = fs.String("dataset", "small", "corpus to stream")
		sample      = fs.Float64("sample", 0.05, "frame-sampling fraction")
		resolution  = fs.Int("resolution", 0, "transmission resolution (0 = native)")
		remove      = fs.String("remove", "", "comma-separated restricted classes")
		noise       = fs.Float64("noise", 0, "added capture noise sigma")
		seed        = fs.Uint64("seed", 1, "randomness seed")
		addr        = fs.String("addr", "127.0.0.1:0", "one-shot mode: TCP address to rendezvous on")
		window      = fs.Int("window", 0, "windowed mode: window span in stream positions (0 = one-shot session)")
		stride      = fs.Int("stride", 0, "windowed mode: distance between window starts (0 = tumbling)")
		loops       = fs.Int("loops", 1, "windowed mode: camera sessions replaying the corpus back to back")
		class       = fs.String("class", "car", "windowed mode: object class to count")
		agg         = fs.String("agg", "avg", "windowed mode: per-window aggregate (avg, sum, count)")
		driftThresh = fs.Float64("drift-threshold", 0, "windowed mode: total-variation drift trigger (0 = default)")
		noDrift     = fs.Bool("no-drift", false, "windowed mode: skip the corpus baseline and drift detection")
		wirePixels  = fs.Bool("wire-pixels", false, "windowed mode: detect on received rasters instead of the replay backend")
		remote      = fs.String("remote", "", "windowed mode: smokescreend base URL; run the stream in the daemon and watch it")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	// The windowed mode's request, as the daemon's POST /v1/streams takes it.
	req := server.StreamRequest{
		Dataset:        *datasetName,
		Class:          *class,
		Agg:            *agg,
		Window:         *window,
		Stride:         *stride,
		Sample:         *sample,
		Resolution:     *resolution,
		Loops:          *loops,
		Seed:           *seed,
		DriftThreshold: *driftThresh,
		DisableDrift:   *noDrift,
		WirePixels:     *wirePixels,
	}
	if *remote != "" {
		remoteStream(strings.TrimRight(*remote, "/"), req)
		return
	}

	setting := degrade.Setting{SampleFraction: *sample, Resolution: *resolution, NoiseSigma: *noise}
	if *remove != "" {
		for _, name := range strings.Split(*remove, ",") {
			c, err := scene.ParseClass(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			setting.Restricted = append(setting.Restricted, c)
		}
	}

	v, err := dataset.Load(*datasetName)
	if err != nil {
		fatal(err)
	}
	model := detect.YOLOv4Sim()
	node := &camera.Node{Video: v, Model: model, Setting: setting, Energy: camera.DefaultEnergyModel()}

	if *window > 0 {
		windowedStream(node, req)
		return
	}
	oneShotStream(node, *seed, *addr)
}

// windowedStream runs the live-ingest subsystem locally: camera and
// receiver in one process, joined by stream.Loopback's in-process pipe —
// the assembly the daemon's POST /v1/streams runs.
func windowedStream(node *camera.Node, req server.StreamRequest) {
	class, err := scene.ParseClass(req.Class)
	if err != nil {
		fatal(err)
	}
	agg, err := estimate.ParseAgg(req.Agg)
	if err != nil {
		fatal(err)
	}
	cfg := stream.Config{
		Model:          node.Model,
		Class:          class,
		Agg:            agg,
		WindowSpan:     req.Window,
		WindowStride:   req.Stride,
		Sources:        []*scene.Video{node.Video},
		WirePixels:     req.WirePixels,
		DriftThreshold: req.DriftThreshold,
		OnWindow: func(res stream.WindowResult) {
			drift := ""
			if res.Drifted {
				drift = "  << DRIFT"
			}
			fmt.Printf("window %3d [%6d,%6d): %s = %.3f (err <= %.3f, %d/%d frames, divergence %.3f)%s\n",
				res.Seq, res.Lo, res.Hi, req.Agg, res.Estimate.Value, res.Estimate.ErrBound,
				res.Frames, res.Estimate.N, res.Divergence, drift)
		},
		OnDrift: func(ev stream.DriftEvent) {
			fmt.Println("  " + ev.String())
		},
	}
	recv, err := stream.New(cfg)
	if err != nil {
		fatal(err)
	}

	ctx, cancel := interruptCtx()
	defer cancel()

	if !req.DisableDrift && !req.WirePixels {
		p := node.Setting.ResolveResolution(node.Model)
		fmt.Printf("building corpus drift baseline (%s at %dx%d)...\n", node.Video.Config.Name, p, p)
		base, err := stream.CorpusBaseline(ctx, node.Video, node.Model, class, p)
		if err != nil {
			fatal(err)
		}
		recv.SetBaseline(base)
		fmt.Printf("baseline mean %.3f over %d distinct values\n", base.Mean, len(base.Values))
	}

	fmt.Printf("streaming over an in-process pipe (window %d, stride %d, %d sessions)\n",
		req.Window, max(req.Stride, 0), req.Loops)
	sent, runErr := stream.Loopback(ctx, recv, []*camera.Node{node}, req.Loops, req.Seed)
	fmt.Printf("camera done: %d frames captured, %d transmitted, %d bytes\n",
		sent.FramesCaptured, sent.FramesTransmitted, sent.BytesTransmitted)

	st := recv.Status()
	switch {
	case runErr == nil:
		fmt.Printf("stream ended cleanly: %d windows from %d frames (%d late), %d drift events\n",
			st.Windows, st.Frames, st.Late, st.Drifts)
	case errors.Is(runErr, context.Canceled):
		fmt.Printf("canceled: %d complete windows reported, partial window discarded\n", st.Windows)
	default:
		fatal(runErr)
	}
}

// remoteStream starts a stream job in a smokescreend daemon and watches
// it, polling the status endpoint; ^C cancels the remote job.
func remoteStream(baseURL string, req server.StreamRequest) {
	if req.Window <= 0 {
		fatal(errors.New("remote streaming requires -window"))
	}
	ctx, cancel := interruptCtx()
	defer cancel()
	client := &server.Client{BaseURL: baseURL}
	status, err := client.StartStream(ctx, req)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stream %s started on %s (%s, window %d, %d sessions)\n",
		status.ID, baseURL, req.Dataset, req.Window, status.Loops)

	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	lastWindows := -1
	for {
		select {
		case <-ctx.Done():
			// ^C: cancel the remote job (with a fresh context — ours is
			// already done) and report its final state.
			stopCtx, stopCancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer stopCancel()
			if _, err := client.CancelStream(stopCtx, status.ID); err != nil {
				fatal(err)
			}
			final, err := client.AwaitStream(stopCtx, status.ID)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("canceled: state %s, %d complete windows, %d drift events\n",
				final.State, final.Stream.Windows, final.Stream.Drifts)
			return
		case <-ticker.C:
		}
		st, err := client.Stream(ctx, status.ID)
		if err != nil {
			if ctx.Err() != nil {
				continue // the ^C branch will handle it
			}
			fatal(err)
		}
		if st.Stream.Windows != lastWindows && st.Stream.LastWindow != nil {
			lw := st.Stream.LastWindow
			fmt.Printf("window %3d [%6d,%6d): %.3f (err <= %.3f, %d frames, divergence %.3f, lag %d, drifts %d)\n",
				lw.Seq, lw.Lo, lw.Hi, lw.Estimate.Value, lw.Estimate.ErrBound,
				lw.Frames, lw.Divergence, st.Stream.WindowLag, st.Stream.Drifts)
			lastWindows = st.Stream.Windows
		}
		if st.State != server.JobRunning {
			fmt.Printf("stream %s: %s — %d windows from %d frames, %d drift events\n",
				st.ID, st.State, st.Stream.Windows, st.Stream.Frames, st.Stream.Drifts)
			if st.Error != "" {
				fatal(errors.New(st.Error))
			}
			return
		}
	}
}

// oneShotStream is the original single-session mode: per-frame running
// estimates and the camera's accounting.
func oneShotStream(node *camera.Node, seed uint64, addr string) {
	listener, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	defer listener.Close()
	fmt.Printf("processor listening on %s\n", listener.Addr())

	type streamResult struct {
		report camera.Report
		err    error
	}
	cameraDone := make(chan streamResult, 1)
	go func() {
		conn, err := net.Dial("tcp", listener.Addr().String())
		if err != nil {
			cameraDone <- streamResult{err: err}
			return
		}
		defer conn.Close()
		report, err := node.Stream(transport.New(conn), stats.NewStream(seed))
		cameraDone <- streamResult{report: report, err: err}
	}()

	serverConn, err := listener.Accept()
	if err != nil {
		fatal(err)
	}
	defer serverConn.Close()

	var totalCars, frames int
	var estimator *estimate.StreamingEstimator
	session, err := camera.Receive(transport.New(serverConn), func(s *camera.Session, fr camera.ReceivedFrame) error {
		if estimator == nil {
			// Any-time mode: the operator watches the running bound, so
			// every reported bound must hold simultaneously.
			var err error
			estimator, err = estimate.NewStreamingEstimator(estimate.AVG, s.Config.TotalFrames, estimate.DefaultParams(), true)
			if err != nil {
				return err
			}
		}
		cars := detect.CountClass(s.Detect(node.Model, fr), scene.Car)
		totalCars += cars
		frames++
		est := estimator.Observe(float64(cars))
		if frames%10 == 0 {
			fmt.Printf("  after %3d frames: running mean %.3f, conservative estimate %.3f (err <= %.3f, any-time)\n",
				frames, float64(totalCars)/float64(frames), est.Value, est.ErrBound)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	result := <-cameraDone
	if result.err != nil {
		fatal(result.err)
	}

	fmt.Printf("camera:     %s (%s)\n", node.Video.Config.Name, node.Setting)
	fmt.Printf("transmitted %d frames, %d bytes\n", result.report.FramesTransmitted, result.report.BytesTransmitted)
	fmt.Printf("energy:     capture %.3f J + compute %.3f J + radio %.3f J = %.3f J\n",
		result.report.CaptureJoules, result.report.ComputeJoules, result.report.TransmitJoules, result.report.TotalJoules())
	fmt.Printf("processor:  received %d frames at %dx%d\n", frames, session.Config.Resolution, session.Config.Resolution)
	if frames > 0 {
		fmt.Printf("detected:   %.3f cars per transmitted frame\n", float64(totalCars)/float64(frames))
	}
}
