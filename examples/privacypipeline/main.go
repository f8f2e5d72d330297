// Privacypipeline demonstrates the full camera-to-processor deployment:
// a simulated networked camera applies the administrator's interventions
// on-device (frame sampling, reduced resolution, face-frame removal),
// ships compressed degraded frames over a byte-accounted link, and the
// central query processor answers the query over the window the stream
// delivers. The example quantifies the *benefit* side of the tradeoff:
// bandwidth and energy saved relative to an undegraded stream.
//
//	go run ./examples/privacypipeline
package main

import (
	"context"
	"fmt"
	"log"

	"smokescreen"
	"smokescreen/internal/camera"
	"smokescreen/internal/server"
	"smokescreen/internal/stream"
)

// session runs the query as one camera session through the pipeline every
// stream surface runs (server.ResolveStream → ResolvedStream.Run), prints
// what the camera sent and the answer over the one window the session
// spans, and returns the camera's report.
func session(ctx context.Context, name, text string) camera.Report {
	rs, err := server.ResolveStream(server.StreamRequest{Query: text, Seed: 3, DisableDrift: true})
	if err != nil {
		log.Fatal(err)
	}
	var window stream.WindowResult
	rs.Config.OnWindow = func(res stream.WindowResult) { window = res }
	recv, err := stream.New(rs.Config)
	if err != nil {
		log.Fatal(err)
	}
	report, err := rs.Run(ctx, recv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(name, rs.Node.Setting)
	fmt.Printf("  frames %4d  bytes %8d  energy %.3f J\n",
		report.FramesTransmitted, report.BytesTransmitted, report.TotalJoules())
	fmt.Printf("  window answer %.3f cars/frame, error bound %.4f, sampling only: %v\n",
		window.Estimate.Value, window.Estimate.ErrBound, rs.SamplingOnly)
	return report
}

func main() {
	ctx := context.Background()
	// Reference: a lightly degraded stream (every 10th frame, native-ish).
	const reference = "SELECT AVG(count(car)) FROM small SAMPLE 0.1 RESOLUTION 320"
	// Policy: stronger sampling, half resolution, and no frame containing
	// a face ever leaves the camera.
	const policy = "SELECT AVG(count(car)) FROM small SAMPLE 0.05 RESOLUTION 160 REMOVE face"

	refReport := session(ctx, "reference stream:", reference)
	polReport := session(ctx, "policy stream:   ", policy)

	fmt.Printf("\nbandwidth saved: %.1f%%\n",
		100*(1-float64(polReport.BytesTransmitted)/float64(refReport.BytesTransmitted)))
	fmt.Printf("energy saved:    %.1f%%\n",
		100*(1-polReport.TotalJoules()/refReport.TotalJoules()))
	fmt.Println("privacy:         no face-containing frame was transmitted (removed on-camera)")

	// The analytical price of the policy, from the estimator: the same
	// query executed with a correction set that repairs what the stream's
	// sampling-only bound leaves out.
	sys := smokescreen.New(smokescreen.WithSeed(3))
	q, err := smokescreen.ParseQuery(policy)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.ExecuteCtx(ctx, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nestimator answer under the policy: %.3f with error bound %.4f\n",
		res.Estimate.Value, res.Estimate.ErrBound)
}
