// Privacypipeline demonstrates the full camera-to-processor deployment:
// a simulated networked camera applies the administrator's interventions
// on-device (frame sampling, reduced resolution, face-frame removal),
// ships compressed degraded frames over a byte-accounted link, and the
// central query processor runs detection on the received pixels only. The
// example quantifies the *benefit* side of the tradeoff: bandwidth and
// energy saved relative to an undegraded stream.
//
//	go run ./examples/privacypipeline
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"smokescreen"
	"smokescreen/internal/camera"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// session streams the setting through an in-process pipe and returns the
// camera's report plus the mean per-frame car count the processor measured.
func session(setting degrade.Setting) (camera.Report, float64, int) {
	v := dataset.MustLoad("small")
	model := detect.YOLOv4Sim()
	node := &camera.Node{
		Video:   v,
		Model:   model,
		Setting: setting,
		Energy:  camera.DefaultEnergyModel(),
	}

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	reportCh := make(chan camera.Report, 1)
	go func() {
		report, err := node.Stream(transport.New(client), stats.NewStream(3))
		if err != nil {
			log.Fatal(err)
		}
		reportCh <- report
	}()

	var totalCars, frames int
	_, err := camera.Receive(transport.New(server), func(s *camera.Session, fr camera.ReceivedFrame) error {
		totalCars += detect.CountClass(s.Detect(model, fr), scene.Car)
		frames++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	report := <-reportCh
	if frames == 0 {
		return report, 0, 0
	}
	return report, float64(totalCars) / float64(frames), frames
}

func main() {
	ctx := context.Background()
	// Reference: a lightly degraded stream (every 10th frame, native-ish).
	reference := degrade.Setting{SampleFraction: 0.1, Resolution: 320}
	// Policy: stronger sampling, half resolution, and no frame containing
	// a face ever leaves the camera.
	policy := degrade.Setting{
		SampleFraction: 0.05,
		Resolution:     160,
		Restricted:     []smokescreen.Class{smokescreen.Face},
	}

	refReport, refAvg, refFrames := session(reference)
	polReport, polAvg, polFrames := session(policy)

	fmt.Println("reference stream:", reference)
	fmt.Printf("  frames %4d  bytes %8d  energy %.3f J  avg cars %.3f\n",
		refFrames, refReport.BytesTransmitted, refReport.TotalJoules(), refAvg)
	fmt.Println("policy stream:   ", policy)
	fmt.Printf("  frames %4d  bytes %8d  energy %.3f J  avg cars %.3f\n",
		polFrames, polReport.BytesTransmitted, polReport.TotalJoules(), polAvg)

	fmt.Printf("\nbandwidth saved: %.1f%%\n",
		100*(1-float64(polReport.BytesTransmitted)/float64(refReport.BytesTransmitted)))
	fmt.Printf("energy saved:    %.1f%%\n",
		100*(1-polReport.TotalJoules()/refReport.TotalJoules()))
	fmt.Println("privacy:         no face-containing frame was transmitted (removed on-camera)")

	// The analytical price of the policy, from the estimator.
	sys := smokescreen.New(smokescreen.WithSeed(3))
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small SAMPLE 0.05 RESOLUTION 160 REMOVE face")
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
