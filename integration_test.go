package smokescreen_test

// Cross-module integration tests: each test exercises a realistic flow
// spanning several internal packages through their real interfaces —
// no mocks, the same code paths the examples and CLIs use.

import (
	"bytes"
	"context"
	"math"
	"net"
	"testing"

	"smokescreen"
	"smokescreen/internal/camera"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/multicam"
	"smokescreen/internal/profile"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
	"smokescreen/internal/transport"
)

// TestIntegrationProfileArchiveRoundTrip drives the full administration
// procedure with an archival hop in the middle: generate profiles, save
// the hypercube, load it back, choose a tradeoff from the loaded copy,
// and execute the query under the chosen setting.
func TestIntegrationProfileArchiveRoundTrip(t *testing.T) {
	sys := smokescreen.New(
		smokescreen.WithSeed(99),
		smokescreen.WithFractionCandidates(0.04, 0.2),
	)
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small")
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := sys.GenerateProfilesCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	var archive bytes.Buffer
	if err := profile.SaveHypercube(&archive, profiles.Cube); err != nil {
		t.Fatal(err)
	}
	loaded, err := profile.LoadHypercube(&archive)
	if err != nil {
		t.Fatal(err)
	}
	setting, ok := loaded.ChooseTradeoff(0.4)
	if !ok {
		t.Fatal("no tradeoff within 0.4 on the loaded hypercube")
	}

	res, err := sys.ExecuteSettingCtx(context.Background(), q, setting)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sys.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	if trueErr := math.Abs(res.Estimate.Value-truth) / truth; trueErr > res.Estimate.ErrBound {
		t.Fatalf("bound %v below true error %v after the archive hop", res.Estimate.ErrBound, trueErr)
	}
}

// TestIntegrationCameraToStreamingEstimate runs the deployment topology
// end to end: a camera degrades and transmits frames over a wire, the
// central processor detects on received pixels and folds counts into a
// streaming estimator, and the final any-time bound covers the truth.
func TestIntegrationCameraToStreamingEstimate(t *testing.T) {
	v := dataset.MustLoad("small")
	model := detect.YOLOv4Sim()
	node := &camera.Node{
		Video:   v,
		Model:   model,
		Setting: degrade.Setting{SampleFraction: 0.3},
		Energy:  camera.DefaultEnergyModel(),
	}

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := node.Stream(transport.New(client), stats.NewStream(17))
		errCh <- err
	}()

	params := estimate.DefaultParams()
	var estimator *estimate.StreamingEstimator
	var last estimate.Estimate
	_, err := camera.ReceiveSession(transport.New(server), nil, func(s *camera.Session, fr camera.ReceivedFrame) error {
		if estimator == nil {
			var err error
			estimator, err = estimate.NewStreamingEstimator(estimate.AVG, s.Config.TotalFrames, params, true)
			if err != nil {
				return err
			}
		}
		cars := detect.CountClass(s.Detect(model, fr), scene.Car)
		last = estimator.Observe(float64(cars))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Truth for the wire pipeline: full-frame detection at the same
	// transmitted resolution over the whole corpus.
	var sum float64
	for i := 0; i < v.NumFrames(); i++ {
		sum += float64(detect.CountClass(model.DetectFrameFull(v, i, model.NativeInput), scene.Car))
	}
	truth := sum / float64(v.NumFrames())
	if truth <= 0 {
		t.Fatal("degenerate truth")
	}
	if trueErr := math.Abs(last.Value-truth) / truth; trueErr > last.ErrBound {
		t.Fatalf("streaming bound %v below true error %v", last.ErrBound, trueErr)
	}
	if last.Sample != int(float64(v.NumFrames())*0.3+0.5) {
		t.Fatalf("streamed %d frames", last.Sample)
	}
}

// TestIntegrationFleetOverArchivedCorrections assembles a fleet from query
// text alone — its non-random camera's correction set is the front door's,
// built at that camera's share of the risk — and checks the combined
// answer against the exact fleet truth.
func TestIntegrationFleetOverArchivedCorrections(t *testing.T) {
	var cameras []multicam.Camera
	for _, c := range [][2]string{
		{"downtown", "SELECT AVG(count(car)) FROM small SAMPLE 0.3 RESOLUTION 160"},
		{"bypass", "SELECT AVG(count(car)) FROM highway SAMPLE 0.1"},
	} {
		q, err := smokescreen.ParseQuery(c[1])
		if err != nil {
			t.Fatal(err)
		}
		cameras = append(cameras, multicam.Camera{Name: c[0], Query: q})
	}
	city, err := multicam.New(smokescreen.New(smokescreen.WithSeed(29)), cameras...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := city.QueryCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	audit, err := city.Audit(res.Estimate)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Held {
		t.Fatalf("fleet bound %v below true error %v", res.Estimate.ErrBound, audit.TrueError)
	}
}
