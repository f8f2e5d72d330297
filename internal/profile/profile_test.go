package profile

import (
	"context"
	"errors"
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/plan"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

func testSpec(agg estimate.Agg) *Spec {
	return &Spec{
		Video:  dataset.MustLoad("small"),
		Model:  detect.YOLOv4Sim(),
		Class:  scene.Car,
		Agg:    agg,
		Params: estimate.DefaultParams(),
	}
}

func TestSpecValidate(t *testing.T) {
	s := testSpec(estimate.AVG)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Spec{Video: s.Video, Model: detect.MTCNNSim(), Class: scene.Car, Agg: estimate.AVG, Params: s.Params}
	if err := bad.Validate(); err == nil {
		t.Fatal("MTCNN car spec accepted")
	}
	if err := (&Spec{}).Validate(); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestTruePopulationTransform(t *testing.T) {
	avg := testSpec(estimate.AVG)
	count := testSpec(estimate.COUNT)
	popAvg := avg.TruePopulation()
	popCount := count.TruePopulation()
	if len(popAvg) != avg.Video.NumFrames() || len(popCount) != len(popAvg) {
		t.Fatal("population lengths wrong")
	}
	for i := range popCount {
		if popCount[i] != 0 && popCount[i] != 1 {
			t.Fatalf("COUNT population not indicators: %v", popCount[i])
		}
		if (popCount[i] == 1) != (popAvg[i] > 0) {
			t.Fatalf("indicator %v inconsistent with count %v", popCount[i], popAvg[i])
		}
	}
}

func TestSpecCustomPredicate(t *testing.T) {
	s := testSpec(estimate.COUNT)
	s.Predicate = func(x float64) float64 {
		if x >= 3 {
			return 1
		}
		return 0
	}
	pop := s.TruePopulation()
	raw, err := outputs.Full(context.Background(), s.Video, s.Model, s.Class, s.Model.NativeInput)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		want := 0.0
		if raw[i] >= 3 {
			want = 1
		}
		if pop[i] != want {
			t.Fatalf("predicate not applied at %d", i)
		}
	}
}

// A non-random setting has no sound estimate without a correction set. The
// coverage of the repaired and random-only estimates is the root package's
// soundness table (TestSoundness/profile/...).
func TestEstimateSettingNonRandomNeedsCorrection(t *testing.T) {
	s := testSpec(estimate.AVG)
	for _, setting := range []degrade.Setting{
		{SampleFraction: 0.2, Resolution: 160},
		{SampleFraction: 0.3, NoiseSigma: 0.2},
	} {
		if _, err := s.EstimateSettingCtx(context.Background(), setting, nil, stats.NewStream(1)); err == nil {
			t.Errorf("%v without correction accepted", setting)
		}
	}
}

func TestUncorrectedEstimateCanUndershoot(t *testing.T) {
	// At a destructive resolution the uncorrected bound must fail for a
	// decent share of trials — the phenomenon Figure 6 circles in red.
	// 96px biases counts substantially without zeroing them (an all-zero
	// sample would honestly degenerate to err=1 and trivially cover).
	s := testSpec(estimate.AVG)
	root := stats.NewStream(107)
	failures := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		est, err := s.UncorrectedEstimate(degrade.Setting{SampleFraction: 0.3, Resolution: 96}, root.Child(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if audit, _ := s.Audit(est); !audit.Held {
			failures++
		}
	}
	if failures < trials/3 {
		t.Fatalf("uncorrected bound failed only %d/%d at 96px", failures, trials)
	}
}

func TestConstructCorrectionElbow(t *testing.T) {
	s := testSpec(estimate.AVG)
	res, err := ConstructCorrectionCtx(context.Background(), s, 1, stats.NewStream(109))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 2 {
		t.Fatalf("construction took %d steps", len(res.Steps))
	}
	// Steps grow by 1% of the corpus.
	n := s.Video.NumFrames()
	for i, step := range res.Steps {
		wantFrac := 0.01 * float64(i+1)
		if math.Abs(step.Fraction-wantFrac) > 1e-9 {
			t.Fatalf("step %d fraction %v", i, step.Fraction)
		}
		if step.Size != int(float64(n)*wantFrac+0.5) {
			t.Fatalf("step %d size %d", i, step.Size)
		}
	}
	// The stopping step improved by < 2% over its predecessor.
	last := res.Steps[len(res.Steps)-1]
	prev := res.Steps[len(res.Steps)-2]
	if prev.ErrBound-last.ErrBound >= 0.02 && last.Fraction < 1 {
		t.Fatalf("stopped while still improving: %v -> %v", prev.ErrBound, last.ErrBound)
	}
	if len(res.Correction.Sample) != last.Size {
		t.Fatal("returned correction does not match the last step")
	}
}

// TestCorrectionDetectionIsBookedAsDetect: the detector work a correction
// set triggers is the detect stage's, not estimation's.
func TestCorrectionDetectionIsBookedAsDetect(t *testing.T) {
	detect.ResetCaches()
	before := plan.Stages()
	if _, err := ConstructCorrectionCtx(context.Background(), testSpec(estimate.AVG), 0.02, stats.NewStream(7)); err != nil {
		t.Fatal(err)
	}
	after := plan.Stages()
	if detect.Invocations() == 0 {
		t.Fatal("construction ran no detector: not a cold run")
	}
	if after.DetectNS <= before.DetectNS {
		t.Errorf("DetectNS %d -> %d: correction detection not booked as detect", before.DetectNS, after.DetectNS)
	}
	if after.EstimateNS != before.EstimateNS {
		t.Errorf("EstimateNS %d -> %d: correction detection booked as estimation", before.EstimateNS, after.EstimateNS)
	}
}

func TestConstructCorrectionRespectsLimit(t *testing.T) {
	s := testSpec(estimate.AVG)
	res, err := ConstructCorrectionCtx(context.Background(), s, 0.02, stats.NewStream(113))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fraction > 0.02+1e-9 {
		t.Fatalf("fraction %v exceeds limit", res.Fraction)
	}
	if _, err := ConstructCorrectionCtx(context.Background(), s, 0.001, stats.NewStream(1)); err == nil {
		t.Fatal("limit below the growth step accepted")
	}
	if _, err := ConstructCorrectionCtx(context.Background(), s, 1.5, stats.NewStream(1)); err == nil {
		t.Fatal("limit above 1 accepted")
	}
}

func TestBuildCorrectionAt(t *testing.T) {
	s := testSpec(estimate.MAX)
	corr, err := BuildCorrectionAt(s, 500, stats.NewStream(131))
	if err != nil {
		t.Fatal(err)
	}
	if len(corr.Sample) != 500 {
		t.Fatalf("size %d", len(corr.Sample))
	}
	if _, err := BuildCorrectionAt(s, 0, stats.NewStream(1)); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := BuildCorrectionAt(s, s.Video.NumFrames()+1, stats.NewStream(1)); err == nil {
		t.Fatal("oversized correction accepted")
	}
}

func TestSweepFractionsProfile(t *testing.T) {
	s := testSpec(estimate.AVG)
	fractions := []float64{0.01, 0.05, 0.1, 0.2, 0.4}
	prof, err := SweepFractionsCtx(context.Background(), s, SweepOptions{Fractions: fractions}, stats.NewStream(137))
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Points) != len(fractions) {
		t.Fatalf("profile has %d points", len(prof.Points))
	}
	// Bounds must broadly tighten as the fraction grows.
	first := prof.Points[0].Estimate.ErrBound
	last := prof.Points[len(prof.Points)-1].Estimate.ErrBound
	if last >= first {
		t.Fatalf("bound did not tighten across the sweep: %v -> %v", first, last)
	}
	if prof.VideoName != "small" || prof.Agg != estimate.AVG {
		t.Fatal("profile metadata wrong")
	}
}

func TestSweepFractionsValidation(t *testing.T) {
	s := testSpec(estimate.AVG)
	if _, err := SweepFractionsCtx(context.Background(), s, SweepOptions{}, stats.NewStream(1)); err == nil {
		t.Fatal("empty fractions accepted")
	}
	if _, err := SweepFractionsCtx(context.Background(), s, SweepOptions{Fractions: []float64{0.2, 0.1}}, stats.NewStream(1)); err == nil {
		t.Fatal("descending fractions accepted")
	}
	if _, err := SweepFractionsCtx(context.Background(), s, SweepOptions{Fractions: []float64{0.1}, Setting: degrade.Setting{Resolution: 96}}, stats.NewStream(1)); err == nil {
		t.Fatal("non-random sweep without correction accepted")
	}
}

func TestSweepEarlyStops(t *testing.T) {
	s := testSpec(estimate.AVG)
	fractions := make([]float64, 40)
	for i := range fractions {
		fractions[i] = 0.01 * float64(i+1)
	}
	full, err := SweepFractionsCtx(context.Background(), s, SweepOptions{Fractions: fractions}, stats.NewStream(139))
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := SweepFractionsCtx(context.Background(), s, SweepOptions{Fractions: fractions, EarlyStopDelta: 0.02}, stats.NewStream(139))
	if err != nil {
		t.Fatal(err)
	}
	if len(stopped.Points) >= len(full.Points) {
		t.Fatalf("early stop did not trim the sweep: %d vs %d", len(stopped.Points), len(full.Points))
	}
	// Identical prefix: reuse means the shared points match exactly.
	for i := range stopped.Points {
		if stopped.Points[i].Estimate != full.Points[i].Estimate {
			t.Fatalf("point %d differs between stopped and full sweeps", i)
		}
	}
}

func TestSweepNestedReuse(t *testing.T) {
	// The same stream must yield identical profiles (deterministic nested
	// sampling), and a different stream a different sample.
	s := testSpec(estimate.AVG)
	opts := SweepOptions{Fractions: []float64{0.05, 0.1}}
	a, _ := SweepFractionsCtx(context.Background(), s, opts, stats.NewStream(149))
	b, _ := SweepFractionsCtx(context.Background(), s, opts, stats.NewStream(149))
	c, _ := SweepFractionsCtx(context.Background(), s, opts, stats.NewStream(151))
	for i := range a.Points {
		if a.Points[i].Estimate != b.Points[i].Estimate {
			t.Fatal("sweep not deterministic")
		}
	}
	same := true
	for i := range a.Points {
		if a.Points[i].Estimate != c.Points[i].Estimate {
			same = false
		}
	}
	if same {
		t.Fatal("different streams produced identical sweeps")
	}
}

func TestBoundAtFractionInterpolation(t *testing.T) {
	prof := &Profile{Points: []Point{
		{Setting: degrade.Setting{SampleFraction: 0.1}, Estimate: estimate.Estimate{ErrBound: 0.5}},
		{Setting: degrade.Setting{SampleFraction: 0.3}, Estimate: estimate.Estimate{ErrBound: 0.1}},
	}}
	cases := []struct {
		f, want float64
	}{
		{0.05, 0.5}, {0.1, 0.5}, {0.2, 0.3}, {0.3, 0.1}, {0.5, 0.1},
	}
	for _, c := range cases {
		got, err := prof.BoundAtFraction(c.f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("BoundAtFraction(%v) = %v, want %v", c.f, got, c.want)
		}
	}
	if _, err := (&Profile{}).BoundAtFraction(0.1); err == nil {
		t.Fatal("empty profile accepted")
	}
}

func TestBoundAtFractionOutOfRange(t *testing.T) {
	prof := &Profile{Points: []Point{
		{Setting: degrade.Setting{SampleFraction: 0.1}, Estimate: estimate.Estimate{ErrBound: 0.5}},
		{Setting: degrade.Setting{SampleFraction: 0.3}, Estimate: estimate.Estimate{ErrBound: 0.1}},
	}}
	// Fractions no Setting could carry are typed errors, so callers can
	// branch on them without string matching.
	for _, f := range []float64{0, -0.1, 1.0001, 2, math.NaN()} {
		_, err := prof.BoundAtFraction(f)
		if !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("BoundAtFraction(%v) error = %v, want ErrOutOfRange", f, err)
		}
	}
	_, err := (&Profile{}).BoundAtFraction(0.1)
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("empty profile error = %v, want ErrOutOfRange", err)
	}
	// f = 1 is always answerable (nearest-endpoint clamp), never an error.
	if _, err := prof.BoundAtFraction(1); err != nil {
		t.Fatalf("BoundAtFraction(1) = %v", err)
	}
}

func TestBoundAtFractionExactEndpoints(t *testing.T) {
	prof := &Profile{Points: []Point{
		{Setting: degrade.Setting{SampleFraction: 0.1}, Estimate: estimate.Estimate{ErrBound: 0.5}},
		{Setting: degrade.Setting{SampleFraction: 0.2}, Estimate: estimate.Estimate{ErrBound: 0.3}},
		{Setting: degrade.Setting{SampleFraction: 0.3}, Estimate: estimate.Estimate{ErrBound: 0.1}},
	}}
	// Queries landing exactly on profiled fractions return those points'
	// bounds with no interpolation drift.
	for _, c := range []struct{ f, want float64 }{{0.1, 0.5}, {0.2, 0.3}, {0.3, 0.1}} {
		got, err := prof.BoundAtFraction(c.f)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("BoundAtFraction(%v) = %v, want exactly %v", c.f, got, c.want)
		}
	}
}

func TestBoundAtFractionSinglePoint(t *testing.T) {
	prof := &Profile{Points: []Point{
		{Setting: degrade.Setting{SampleFraction: 0.25}, Estimate: estimate.Estimate{ErrBound: 0.4}},
	}}
	// A single-point profile clamps every valid fraction to its one bound.
	for _, f := range []float64{0.01, 0.25, 0.9, 1} {
		got, err := prof.BoundAtFraction(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0.4 {
			t.Fatalf("single-point BoundAtFraction(%v) = %v, want 0.4", f, got)
		}
	}
	if _, err := prof.BoundAtFraction(0); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("single-point profile accepted f=0")
	}
}

func TestChooseFraction(t *testing.T) {
	prof := &Profile{Points: []Point{
		{Setting: degrade.Setting{SampleFraction: 0.05}, Estimate: estimate.Estimate{ErrBound: 0.6}},
		{Setting: degrade.Setting{SampleFraction: 0.1}, Estimate: estimate.Estimate{ErrBound: 0.2}},
		{Setting: degrade.Setting{SampleFraction: 0.3}, Estimate: estimate.Estimate{ErrBound: 0.05}},
	}}
	got, ok := prof.ChooseFraction(0.25)
	if !ok || got.SampleFraction != 0.1 {
		t.Fatalf("ChooseFraction(0.25) = %v, %v", got, ok)
	}
	if _, ok := prof.ChooseFraction(0.01); ok {
		t.Fatal("impossible threshold satisfied")
	}
}

func TestGenerateHypercube(t *testing.T) {
	s := testSpec(estimate.AVG)
	root := stats.NewStream(157)
	res, err := ConstructCorrectionCtx(context.Background(), s, 1, root.Child(1))
	if err != nil {
		t.Fatal(err)
	}
	fractions := []float64{0.02, 0.1}
	cube, err := GenerateHypercubeCtx(context.Background(), s, HypercubeOptions{Fractions: fractions, Correction: res.Correction, Parallelism: 1}, root.Child(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(cube.Bounds) != 4 {
		t.Fatalf("combo axis %d", len(cube.Bounds))
	}
	if len(cube.Bounds[0]) != len(cube.Resolutions) {
		t.Fatal("resolution axis wrong")
	}
	// The loosest slice must be fully feasible.
	for fi := range fractions {
		if math.IsNaN(cube.Bounds[0][0][fi]) {
			t.Fatalf("loosest cell (0,0,%d) infeasible", fi)
		}
	}
	// Person removal on the dense corpus is infeasible at these fractions.
	personIdx := -1
	for ci, combo := range cube.Combos {
		if len(combo) == 1 && combo[0] == scene.Person {
			personIdx = ci
		}
	}
	if personIdx < 0 {
		t.Fatal("person combo missing")
	}
	if !math.IsNaN(cube.Bounds[personIdx][0][1]) {
		t.Fatal("expected infeasible cell under person removal at f=0.1")
	}
	// Slices agree with the underlying array.
	slice := cube.SliceByFraction(0, 0)
	if len(slice) != len(fractions) {
		t.Fatal("fraction slice length")
	}
	rSlice := cube.SliceByResolution(0, 0)
	if len(rSlice) != len(cube.Resolutions) {
		t.Fatal("resolution slice length")
	}
	if _, err := GenerateHypercubeCtx(context.Background(), s, HypercubeOptions{Fractions: fractions, Parallelism: 1}, root); err == nil {
		t.Fatal("hypercube without correction accepted")
	}
}

func TestHypercubeChooseTradeoff(t *testing.T) {
	cube := &Hypercube{
		Fractions:   []float64{0.1, 0.5},
		Resolutions: []int{608, 320},
		Combos:      [][]scene.Class{nil, {scene.Face}},
		Bounds: [][][]float64{
			{{0.3, 0.1}, {0.4, 0.2}},
			{{0.35, 0.12}, {math.NaN(), 0.22}},
		},
	}
	// With maxErr 0.25: feasible cells are (0,0,f=0.5):0.1 score 0.5*608^2,
	// (0,1,f=0.5):0.2 score 0.5*320^2, (1,0,f=0.5):0.12, (1,1,f=0.5):0.22.
	// Lowest pixel volume: 0.5*320^2 with face removal preferred.
	got, ok := cube.ChooseTradeoff(0.25)
	if !ok {
		t.Fatal("no tradeoff found")
	}
	if got.SampleFraction != 0.5 || got.Resolution != 320 || len(got.Restricted) != 1 {
		t.Fatalf("ChooseTradeoff = %v", got)
	}
	if _, ok := cube.ChooseTradeoff(0.01); ok {
		t.Fatal("impossible threshold satisfied")
	}
}

func TestBoundAtFractionStaysWithinEnvelope(t *testing.T) {
	// Interpolated bounds never escape the envelope of the profiled points.
	prof := &Profile{}
	boundsByF := map[float64]float64{
		0.05: 0.8, 0.1: 0.45, 0.2: 0.3, 0.4: 0.12, 0.8: 0.05,
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for f, b := range boundsByF {
		prof.Points = append(prof.Points, Point{
			Setting:  degrade.Setting{SampleFraction: f},
			Estimate: estimate.Estimate{ErrBound: b},
		})
		lo = math.Min(lo, b)
		hi = math.Max(hi, b)
	}
	for f := 0.01; f <= 1.0; f += 0.013 {
		got, err := prof.BoundAtFraction(f)
		if err != nil {
			t.Fatal(err)
		}
		if got < lo-1e-12 || got > hi+1e-12 {
			t.Fatalf("interpolation escaped envelope at f=%v: %v not in [%v,%v]", f, got, lo, hi)
		}
	}
}
