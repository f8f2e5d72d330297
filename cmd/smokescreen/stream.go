package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"smokescreen"
	"smokescreen/internal/core"
	"smokescreen/internal/degrade"
	"smokescreen/internal/server"
	"smokescreen/internal/stream"
)

// cmdStream runs a query continuously: the camera applies the query's
// interventions on-device and transmits, the central processor answers per
// window. The query is the whole request — corpus, model, class, aggregate
// and every intervention clause — resolved by server.ResolveStream, the
// daemon's own POST /v1/streams code, and run by ResolvedStream.Run: the
// camera loops its corpus -loops times (unbounded video), the receiver
// maintains windowed profiles with incremental refresh and flags drift
// against the clean corpus baseline. Without -window the window is one
// camera session (the corpus length). ^C cancels cleanly: in-flight
// detection stops and no partial window is reported.
//
//	smokescreen stream "SELECT AVG(count(car)) FROM small SAMPLE 0.05 RESOLUTION 160 REMOVE face"
//	smokescreen stream -window 300 -stride 150 -loops 3 "SELECT AVG(count(car)) FROM small SAMPLE 0.2"
//
// With -remote the stream runs inside a smokescreend daemon instead, and
// this command watches it: same request, same window lines.
func cmdStream(args []string) {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	var (
		seed        = fs.Uint64("seed", core.DefaultSeed, "camera sampling seed")
		window      = fs.Int("window", 0, "window span in stream positions (0 = one camera session, the corpus length)")
		stride      = fs.Int("stride", 0, "distance between window starts (0 = tumbling)")
		loops       = fs.Int("loops", 1, "camera sessions replaying the corpus back to back")
		driftThresh = fs.Float64("drift-threshold", 0, "total-variation drift trigger (0 = default)")
		noDrift     = fs.Bool("no-drift", false, "skip the corpus baseline and drift detection")
		remote      = fs.String("remote", "", "smokescreend base URL; run the stream in the daemon and watch it")
	)
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if fs.NArg() != 1 {
		fatal(errors.New("stream: exactly one query string expected"))
	}
	req := server.StreamRequest{
		Query:          fs.Arg(0),
		Window:         *window,
		Stride:         *stride,
		Loops:          *loops,
		Seed:           *seed,
		DriftThreshold: *driftThresh,
		DisableDrift:   *noDrift,
	}
	if *remote != "" {
		remoteStream(strings.TrimRight(*remote, "/"), req)
		return
	}
	rs, err := server.ResolveStream(req)
	if err != nil {
		fatal(err)
	}
	windowedStream(rs)
}

// samplingOnlyLabel is appended to every bound printed for a stream whose
// query sets a non-random axis (ResolvedStream.SamplingOnly): the bound is
// the any-time sampling bound over the frames delivered, and nothing repairs
// what the named clauses do to the answer. queryText is the canonical query
// the resolver or the daemon reported; a stream that is not sampling-only
// gets no label and prints exactly what it always has.
func samplingOnlyLabel(samplingOnly bool, queryText string) string {
	if !samplingOnly {
		return ""
	}
	q, err := smokescreen.ParseQuery(queryText)
	if err != nil {
		fatal(err)
	}
	var unrepaired []string
	for _, ax := range degrade.Axes() {
		if !ax.Random && ax.Clause != nil && ax.Clause.Render(q.Setting) != "" {
			unrepaired = append(unrepaired, ax.Clause.Keyword)
		}
	}
	return "  [sampling only — " + strings.Join(unrepaired, ", ") + " not repaired]"
}

// printWindow is the one rendering of a completed window, local or remote.
func printWindow(res stream.WindowResult, label string) {
	drift := ""
	if res.Drifted {
		drift = "  << DRIFT"
	}
	fmt.Printf("window %3d [%6d,%6d): %.3f (err <= %.3f, %d/%d frames, divergence %.3f)%s%s\n",
		res.Seq, res.Lo, res.Hi, res.Estimate.Value, res.Estimate.ErrBound,
		res.Frames, res.Estimate.N, res.Divergence, label, drift)
}

// windowedStream runs the stream locally: the resolved camera and receiver
// in one process, as the daemon's stream job runs them.
func windowedStream(rs *server.ResolvedStream) {
	label := samplingOnlyLabel(rs.SamplingOnly, rs.Query)
	rs.Config.OnWindow = func(res stream.WindowResult) { printWindow(res, label) }
	rs.Config.OnDrift = func(ev stream.DriftEvent) { fmt.Println("  " + ev.String()) }
	recv, err := stream.New(rs.Config)
	if err != nil {
		fatal(err)
	}

	ctx, cancel := interruptCtx()
	defer cancel()

	req := rs.Request
	fmt.Printf("streaming %s over an in-process pipe (window %d, stride %d, %d sessions)\n",
		rs.Query, req.Window, req.Stride, req.Loops)
	sent, runErr := rs.Run(ctx, recv)
	fmt.Printf("camera done: %d frames captured, %d transmitted, %d bytes; energy: capture %.3f J + compute %.3f J + radio %.3f J = %.3f J\n",
		sent.FramesCaptured, sent.FramesTransmitted, sent.BytesTransmitted,
		sent.CaptureJoules, sent.ComputeJoules, sent.TransmitJoules, sent.TotalJoules())

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
	ctx, cancel := interruptCtx()
	defer cancel()
	client := &server.Client{BaseURL: baseURL}
	status, err := client.StartStream(ctx, req)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stream %s started on %s (%s, window %d, %d sessions)\n",
		status.ID, baseURL, status.Query, status.Window, status.Loops)
	label := samplingOnlyLabel(status.SamplingOnly, status.Query)

	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	nextSeq := 0
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
		for _, res := range st.Windows {
			if res.Seq >= nextSeq {
				printWindow(res, label)
				nextSeq = res.Seq + 1
			}
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
