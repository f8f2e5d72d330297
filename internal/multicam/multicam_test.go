package multicam

import (
	"context"
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// testFleet builds a two-camera fleet: the fast corpus and the A/B pair
// sequences, each under a random-only setting.
func testFleet(t *testing.T, fractions ...float64) *Fleet {
	t.Helper()
	if len(fractions) != 2 {
		t.Fatal("need two fractions")
	}
	f, err := New(
		Camera{
			Name:    "intersection",
			Video:   dataset.MustLoad("mvi-40771"),
			Model:   detect.YOLOv4Sim(),
			Setting: degrade.Setting{SampleFraction: fractions[0]},
		},
		Camera{
			Name:    "intersection-later",
			Video:   dataset.MustLoad("mvi-40775"),
			Model:   detect.YOLOv4Sim(),
			Setting: degrade.Setting{SampleFraction: fractions[1]},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("empty fleet accepted")
	}
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	ok := Camera{Name: "a", Video: v, Model: m, Setting: degrade.Setting{SampleFraction: 0.1}}
	if _, err := New(ok, Camera{Name: "a", Video: v, Model: m, Setting: ok.Setting}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New(Camera{Video: v, Model: m, Setting: ok.Setting}); err == nil {
		t.Fatal("unnamed camera accepted")
	}
	if _, err := New(Camera{Name: "b", Model: m, Setting: ok.Setting}); err == nil {
		t.Fatal("camera without video accepted")
	}
	if _, err := New(Camera{Name: "c", Video: v, Model: m, Setting: degrade.Setting{SampleFraction: 2}}); err == nil {
		t.Fatal("invalid setting accepted")
	}
	// Non-random setting without correction must be rejected at assembly.
	if _, err := New(Camera{Name: "d", Video: v, Model: m, Setting: degrade.Setting{SampleFraction: 0.1, Resolution: 160}}); err == nil {
		t.Fatal("non-random camera without correction accepted")
	}
}

func TestFleetSizeAndFrames(t *testing.T) {
	f := testFleet(t, 0.2, 0.2)
	if f.Size() != 2 {
		t.Fatalf("Size = %d", f.Size())
	}
	want := dataset.MustLoad("mvi-40771").NumFrames() + dataset.MustLoad("mvi-40775").NumFrames()
	if f.TotalFrames() != want {
		t.Fatalf("TotalFrames = %d, want %d", f.TotalFrames(), want)
	}
}

func TestFleetAvgCoversTruth(t *testing.T) {
	f := testFleet(t, 0.3, 0.3)
	p := estimate.DefaultParams()
	root := stats.NewStream(77)
	covered := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		res, err := f.QueryCtx(context.Background(), estimate.AVG, scene.Car, nil, p, root.Child(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cameras) != 2 {
			t.Fatalf("camera results %d", len(res.Cameras))
		}
		if math.Abs(res.Cameras[0].Weight+res.Cameras[1].Weight-1) > 1e-9 {
			t.Fatal("weights do not sum to 1")
		}
		audit, err := f.Audit(estimate.AVG, scene.Car, nil, res.Estimate, p)
		if err != nil {
			t.Fatal(err)
		}
		if audit.Truth <= 0 {
			t.Fatalf("truth %v", audit.Truth)
		}
		if audit.Held {
			covered++
		}
	}
	if covered < trials*9/10 {
		t.Fatalf("fleet coverage %d/%d", covered, trials)
	}
}

func TestFleetSumScaling(t *testing.T) {
	f := testFleet(t, 0.3, 0.3)
	p := estimate.DefaultParams()
	root := stats.NewStream(79)
	avg, err := f.QueryCtx(context.Background(), estimate.AVG, scene.Car, nil, p, root.Child(1))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := f.QueryCtx(context.Background(), estimate.SUM, scene.Car, nil, p, root.Child(1))
	if err != nil {
		t.Fatal(err)
	}
	want := avg.Estimate.Value * float64(f.TotalFrames())
	if math.Abs(sum.Estimate.Value-want) > 1e-6*want {
		t.Fatalf("SUM %v, want AVG*N %v", sum.Estimate.Value, want)
	}
	if sum.Estimate.ErrBound != avg.Estimate.ErrBound {
		t.Fatal("SUM bound should equal AVG bound")
	}
}

func TestFleetCountCoversTruth(t *testing.T) {
	f := testFleet(t, 0.2, 0.2)
	p := estimate.DefaultParams()
	res, err := f.QueryCtx(context.Background(), estimate.COUNT, scene.Car, nil, p, stats.NewStream(83))
	if err != nil {
		t.Fatal(err)
	}
	audit, err := f.Audit(estimate.COUNT, scene.Car, nil, res.Estimate, p)
	if err != nil {
		t.Fatal(err)
	}
	if !audit.Held {
		t.Fatalf("COUNT bound %v below true error %v", res.Estimate.ErrBound, audit.TrueError)
	}
}

func TestFleetRejectsExtremumAndVar(t *testing.T) {
	f := testFleet(t, 0.2, 0.2)
	p := estimate.DefaultParams()
	for _, agg := range []estimate.Agg{estimate.MAX, estimate.MIN, estimate.VAR} {
		if _, err := f.QueryCtx(context.Background(), agg, scene.Car, nil, p, stats.NewStream(1)); err == nil {
			t.Fatalf("%v accepted", agg)
		}
		if _, err := f.Audit(agg, scene.Car, nil, estimate.Estimate{}, p); err == nil {
			t.Fatalf("Audit %v accepted", agg)
		}
	}
}

func TestFleetMixedSettingsWithRepair(t *testing.T) {
	// One camera degrades resolution (needs correction), the other only
	// samples; the combined bound must still cover the truth.
	vA := dataset.MustLoad("mvi-40771")
	vB := dataset.MustLoad("mvi-40775")
	m := detect.YOLOv4Sim()
	p := estimate.DefaultParams()
	specA := &profile.Spec{Video: vA, Model: m, Class: scene.Car, Agg: estimate.AVG, Params: p}
	corr, err := profile.BuildCorrectionAt(specA, 400, stats.NewStream(89))
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(
		Camera{Name: "a", Video: vA, Model: m,
			Setting: degrade.Setting{SampleFraction: 0.3, Resolution: 320}, Correction: corr},
		Camera{Name: "b", Video: vB, Model: m,
			Setting: degrade.Setting{SampleFraction: 0.3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	root := stats.NewStream(91)
	covered := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		res, err := f.QueryCtx(context.Background(), estimate.AVG, scene.Car, nil, p, root.Child(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		audit, err := f.Audit(estimate.AVG, scene.Car, nil, res.Estimate, p)
		if err != nil {
			t.Fatal(err)
		}
		if audit.Held {
			covered++
		}
	}
	if covered < trials*8/10 {
		t.Fatalf("mixed-setting fleet coverage %d/%d", covered, trials)
	}
}

func TestFleetDegenerateCameraFallsBack(t *testing.T) {
	// A camera sampled so thinly that its interval collapses must push the
	// fleet to the conservative (0, err=1) answer rather than a bogus one.
	f := testFleet(t, 0.002, 0.3)
	p := estimate.DefaultParams()
	res, err := f.QueryCtx(context.Background(), estimate.AVG, scene.Car, nil, p, stats.NewStream(93))
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range res.Cameras {
		if cam.Estimate.ErrBound >= 1 {
			if res.Estimate.ErrBound != 1 || res.Estimate.Value != 0 {
				t.Fatalf("degenerate camera not propagated: %+v", res.Estimate)
			}
			return
		}
	}
	t.Skip("no camera degenerated at this seed; covered elsewhere")
}
