package smokescreen_test

import (
	"context"
	"math"
	"testing"

	"smokescreen"
)

// TestPublicAPIEndToEnd exercises the documented quick-start flow: parse a
// query, generate profiles, choose a tradeoff, execute it — entirely
// through the public surface.
func TestPublicAPIEndToEnd(t *testing.T) {
	sys := smokescreen.New(
		smokescreen.WithSeed(7),
		smokescreen.WithFractionCandidates(0.02, 0.1),
	)
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small")
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := sys.GenerateProfilesCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	setting, err := sys.ChooseTradeoff(profiles, smokescreen.Preferences{MaxError: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	result, err := sys.ExecuteSettingCtx(context.Background(), q, setting)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sys.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth <= 0 || result.Estimate.Value <= 0 {
		t.Fatalf("degenerate answers: truth %v, estimate %v", truth, result.Estimate.Value)
	}
	trueErr := math.Abs(result.Estimate.Value-truth) / truth
	if trueErr > result.Estimate.ErrBound {
		t.Fatalf("bound %v below true error %v", result.Estimate.ErrBound, trueErr)
	}
}

func TestDatasetsListed(t *testing.T) {
	names := smokescreen.Datasets()
	want := map[string]bool{"night-street": true, "ua-detrac": true, "small": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing datasets: %v (have %v)", want, names)
	}
}

func TestDefaultParams(t *testing.T) {
	p := smokescreen.DefaultParams()
	if p.Delta != 0.05 || p.R != 0.99 {
		t.Fatalf("defaults %+v", p)
	}
}

func TestModelConstructors(t *testing.T) {
	if smokescreen.YOLOv4Sim().NativeInput != 608 {
		t.Fatal("YOLOv4Sim wrong")
	}
	if smokescreen.MaskRCNNSim().NativeInput != 640 {
		t.Fatal("MaskRCNNSim wrong")
	}
	if !smokescreen.MTCNNSim().CanDetect(smokescreen.Face) {
		t.Fatal("MTCNNSim wrong")
	}
}
