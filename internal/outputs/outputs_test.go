package outputs

import (
	"context"
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
)

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return
}

func TestFullCachesAndCounts(t *testing.T) {
	detect.ResetCaches()
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	before := detect.Invocations()
	a, err := Full(ctx, v, m, scene.Car, 160)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := detect.Invocations()
	b, err := Full(ctx, v, m, scene.Car, 160)
	if err != nil {
		t.Fatal(err)
	}
	afterSecond := detect.Invocations()
	if len(a) != v.NumFrames() {
		t.Fatalf("outputs length %d", len(a))
	}
	if &a[0] != &b[0] {
		t.Fatal("Full did not return the cached projection")
	}
	if afterFirst-before != int64(v.NumFrames()) {
		t.Fatalf("first call invoked %d times", afterFirst-before)
	}
	if afterSecond != afterFirst {
		t.Fatal("second call re-invoked the model")
	}
	for _, x := range a {
		if x < 0 || x != math.Trunc(x) {
			t.Fatalf("output %v is not a count", x)
		}
	}
	st := ReadStats()
	if st.FramesDetected != int64(v.NumFrames()) {
		t.Fatalf("FramesDetected %d, want %d", st.FramesDetected, v.NumFrames())
	}
	if st.FrameHits < int64(v.NumFrames()) {
		t.Fatalf("FrameHits %d after a fully cached re-read", st.FrameHits)
	}
	detect.ResetCaches()
}

func TestOutputsDifferAcrossClassAndResolution(t *testing.T) {
	detect.ResetCaches()
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	cars, err := Full(ctx, v, m, scene.Car, 320)
	if err != nil {
		t.Fatal(err)
	}
	persons, err := Full(ctx, v, m, scene.Person, 320)
	if err != nil {
		t.Fatal(err)
	}
	carsLow, err := Full(ctx, v, m, scene.Car, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sum(cars) == sum(persons) {
		t.Fatal("car and person series identical")
	}
	if sum(carsLow) >= sum(cars) {
		t.Fatalf("32px car total %v not below 320px total %v", sum(carsLow), sum(cars))
	}
	detect.ResetCaches()
}

// TestCrossClassSharing is the column store's reason to exist: one
// detection pass serves every class at the same (view, model, resolution).
func TestCrossClassSharing(t *testing.T) {
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	n := int64(v.NumFrames())

	detect.ResetCaches()
	before := detect.Invocations()
	if _, err := Full(ctx, v, m, scene.Car, 128); err != nil {
		t.Fatal(err)
	}
	if _, err := Full(ctx, v, m, scene.Person, 128); err != nil {
		t.Fatal(err)
	}
	if shared := detect.Invocations() - before; shared != n {
		t.Fatalf("%d invocations for two classes, want %d", shared, n)
	}
	detect.ResetCaches()
}

func TestAtMatchesFullProjection(t *testing.T) {
	detect.ResetCaches()
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	frames := []int{7, 3, 42, 3, 0}
	got, err := At(ctx, v, m, scene.Car, 96, frames)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Full(ctx, v, m, scene.Car, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if got[i] != full[f] {
			t.Fatalf("At[%d] (frame %d) = %v, Full = %v", i, f, got[i], full[f])
		}
	}
	detect.ResetCaches()
}

func TestPresence(t *testing.T) {
	detect.ResetCaches()
	ctx := context.Background()
	v := dataset.MustLoad("small")
	pres, err := Presence(ctx, v, scene.Person)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres) != v.NumFrames() {
		t.Fatalf("presence length %d", len(pres))
	}
	any, all := false, true
	for _, p := range pres {
		any = any || p
		all = all && p
	}
	if !any || all {
		t.Fatal("person presence should be mixed across frames")
	}
	faces, err := Presence(ctx, v, scene.Face)
	if err != nil {
		t.Fatal(err)
	}
	nf, np := 0, 0
	for i := range faces {
		if faces[i] {
			nf++
		}
		if pres[i] {
			np++
		}
	}
	if nf >= np {
		t.Fatalf("face frames (%d) should be rarer than person frames (%d)", nf, np)
	}
	detect.ResetCaches()
}

// TestCancellation pins the executor's no-partial-results contract: a
// cancelled context stops detector work and nothing half-computed is
// stored or counted.
func TestCancellation(t *testing.T) {
	detect.ResetCaches()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Ensure(ctx, v, m, scene.Car, 160, []int{0, 1, 2}); err != context.Canceled {
		t.Fatalf("Ensure on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := Full(ctx, v, m, scene.Car, 160); err != context.Canceled {
		t.Fatalf("Full on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := At(ctx, v, m, scene.Car, 160, []int{5}); err != context.Canceled {
		t.Fatalf("At on cancelled ctx = %v, want context.Canceled", err)
	}
	if inv := detect.Invocations(); inv != 0 {
		t.Fatalf("cancelled requests still invoked the detector %d times", inv)
	}
	st := ReadStats()
	if st.FramesDetected != 0 || st.SparseEntries != 0 || st.FullSeries != 0 {
		t.Fatalf("cancelled requests stored state: %+v", st)
	}

	// The same claims must be recoverable by a live context afterwards.
	if err := Ensure(context.Background(), v, m, scene.Car, 160, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := ReadStats().FramesDetected; got != 3 {
		t.Fatalf("recovery detected %d frames, want 3", got)
	}
	detect.ResetCaches()
}

func TestStatsAndEvictAccounting(t *testing.T) {
	detect.ResetCaches()
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	if _, err := Full(ctx, v, m, scene.Car, 64); err != nil {
		t.Fatal(err)
	}
	if err := Ensure(ctx, v, m, scene.Car, 96, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	st := ReadStats()
	if st.FullSeries != 1 || st.SparseSeries != 1 || st.SparseEntries != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.FullBytes <= 0 || st.SparseBytes <= 0 {
		t.Fatalf("byte accounting %+v", st)
	}
	// The detect facade reports the same series through its hook.
	dc := detect.Stats()
	if dc.FullSeries != st.FullSeries || dc.SparseEntries != st.SparseEntries {
		t.Fatalf("detect.Stats mismatch: %+v vs %+v", dc, st)
	}
	detect.ResetCaches()
	if after := ReadStats(); after.Tables != 0 {
		t.Fatalf("%d tables survived ResetCaches", after.Tables)
	}
}
