package detect

import (
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
)

// classCount is the number of objects of class c in frame f.
func classCount(f *scene.Frame, c scene.Class) int {
	n := 0
	for _, o := range f.Objects {
		if o.Class == c {
			n++
		}
	}
	return n
}

func TestClassifyBlob(t *testing.T) {
	cases := []struct {
		name string
		bbox raster.Rect
		area int
		want scene.Class
	}{
		{"wide box car", raster.RectWH(0, 0, 40, 20), 760, scene.Car},
		{"tall ellipse person", raster.RectWH(0, 0, 10, 26), 204, scene.Person}, // fill ~0.78
		{"solid tall sliver is a clipped car", raster.RectWH(0, 0, 4, 30), 120, scene.Car},
		{"tiny roundish face", raster.RectWH(0, 0, 4, 4), 12, scene.Face},
		{"squarish solid medium car", raster.RectWH(0, 0, 10, 10), 92, scene.Car},
		{"squarish sparse medium", raster.RectWH(0, 0, 8, 8), 20, scene.Person},
	}
	for _, c := range cases {
		if got := classifyBlob(c.bbox, c.area); got != c.want {
			t.Fatalf("%s: classified %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSingleClassModelClassifiesTarget(t *testing.T) {
	mt := MTCNNSim()
	if got := mt.classify(raster.RectWH(0, 0, 40, 20), 700); got != scene.Face {
		t.Fatalf("MTCNN classified %v, want face", got)
	}
}

func TestChebyshevGap(t *testing.T) {
	a := fRect{0, 0, 10, 10}
	cases := []struct {
		b    fRect
		want float64
	}{
		{fRect{5, 5, 15, 15}, 0},   // overlapping
		{fRect{12, 0, 20, 10}, 2},  // 2 apart horizontally
		{fRect{0, 13, 10, 20}, 3},  // 3 apart vertically
		{fRect{14, 12, 20, 20}, 4}, // diagonal: max(4, 2)
	}
	for _, c := range cases {
		if got := chebyshevGap(a, c.b); got != c.want {
			t.Fatalf("gap(%+v) = %v, want %v", c.b, got, c.want)
		}
	}
	if got := chebyshevGap(a, fRect{12, 0, 20, 10}); got != chebyshevGap(fRect{12, 0, 20, 10}, a) {
		t.Fatalf("gap not symmetric: %v", got)
	}
}

func TestDetectFrameDeterministic(t *testing.T) {
	v := dataset.MustLoad("small")
	m := YOLOv4Sim()
	for i := 0; i < 20; i++ {
		a := m.DetectFrame(v, i, 160)
		b := m.DetectFrame(v, i, 160)
		if len(a) != len(b) {
			t.Fatalf("frame %d: nondeterministic count", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("frame %d: detection %d differs", i, j)
			}
		}
	}
}

func TestDetectFrameInvalidResolutionPanics(t *testing.T) {
	v := dataset.MustLoad("small")
	defer func() {
		if recover() == nil {
			t.Fatal("invalid resolution did not panic")
		}
	}()
	YOLOv4Sim().DetectFrame(v, 0, 100)
}

func TestHighResolutionRecall(t *testing.T) {
	// At native resolution on the daytime corpus, most ground-truth cars
	// must be found (merged overlaps allowed), and the count never exceeds
	// the ground truth by much.
	v := dataset.MustLoad("small")
	m := YOLOv4Sim()
	var gt, det float64
	for i := 0; i < 400; i++ {
		gt += float64(classCount(v.Frame(i), scene.Car))
		det += float64(CountClass(m.DetectFrame(v, i, m.NativeInput), scene.Car))
	}
	if gt == 0 {
		t.Fatal("corpus has no cars")
	}
	recall := det / gt
	if recall < 0.7 || recall > 1.15 {
		t.Fatalf("native-resolution car recall = %v", recall)
	}
}

func TestLowResolutionDegrades(t *testing.T) {
	v := dataset.MustLoad("small")
	m := YOLOv4Sim()
	count := func(p int) float64 {
		var sum float64
		for i := 0; i < 300; i++ {
			sum += float64(CountClass(m.DetectFrame(v, i, p), scene.Car))
		}
		return sum
	}
	native := count(m.NativeInput)
	tiny := count(32)
	if tiny >= native*0.5 {
		t.Fatalf("32px count %v not well below native %v", tiny, native)
	}
}

func TestMergingAtLowResolution(t *testing.T) {
	// Two cars bumper-to-bumper: separable at native scale, fused when the
	// gap shrinks below MergeGap model pixels.
	cfg := scene.Config{
		Name: "merge-test", Width: 640, Height: 640, NumFrames: 1, Seed: 9,
		Lighting: scene.Lighting{BackgroundTop: 0.6, BackgroundBottom: 0.7, NoiseSigma: 0.01},
		CarRate:  0, CarLifetime: 10, CarMinW: 40, CarMaxW: 41, CarContrast: 0.3,
		PersonRate: 0, PersonLifetime: 10,
		BusyFactor: 1, RegimeLength: 10, LaneYs: []int{320},
	}
	v, err := scene.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inject two cars with a 4-native-pixel gap by hand.
	frame := v.Frame(0)
	frame.Objects = []scene.Object{
		{ID: 1, Class: scene.Car, BBox: raster.RectWH(200, 300, 80, 40), Intensity: 0.3},
		{ID: 2, Class: scene.Car, BBox: raster.RectWH(284, 300, 80, 40), Intensity: 0.3},
	}
	m := YOLOv4Sim()
	// At 608 the gap is ~3.8 model pixels: above MergeGap, two cars.
	if got := CountClass(m.DetectFrame(v, 0, 608), scene.Car); got != 2 {
		t.Fatalf("native resolution merged a 4px gap: %d cars", got)
	}
	// At 160 (scale 0.25) the gap is 1 model pixel, under MergeGap, and
	// the cars are still comfortably detectable -> one blob.
	if got := CountClass(m.DetectFrame(v, 0, 160), scene.Car); got != 1 {
		t.Fatalf("low resolution did not merge: %d cars", got)
	}
}

func TestDuplicateResonanceAtAnomalousResolution(t *testing.T) {
	// YOLOv4 on night-street at 384 must overcount relative to both 608
	// and 320 — the paper's Figure 7 anomaly.
	v := dataset.MustLoad("night-street")
	m := YOLOv4Sim()
	count := func(p int) float64 {
		var sum float64
		for i := 0; i < 800; i++ {
			sum += float64(CountClass(m.DetectFrame(v, i, p), scene.Car))
		}
		return sum
	}
	at608 := count(608)
	at384 := count(384)
	at320 := count(320)
	if at384 <= at608*1.05 {
		t.Fatalf("no overcount at 384: %v vs %v at 608", at384, at608)
	}
	if at384 <= at320*1.05 {
		t.Fatalf("384 (%v) not worse than 320 (%v)", at384, at320)
	}
}

func TestPatchPathAgreesWithFullFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("full-frame reference is slow")
	}
	v := dataset.MustLoad("small")
	m := YOLOv4Sim()
	for _, p := range []int{320, 160} {
		var patchSum, fullSum, absDiff float64
		const n = 60
		for i := 0; i < n; i++ {
			pc := float64(CountClass(m.DetectFrame(v, i, p), scene.Car))
			fc := float64(CountClass(m.DetectFrameFull(v, i, p), scene.Car))
			patchSum += pc
			fullSum += fc
			absDiff += math.Abs(pc - fc)
		}
		if patchSum == 0 && fullSum == 0 {
			t.Fatalf("p=%d: both paths found nothing", p)
		}
		// The two paths share physics but differ in noise realisation and
		// background handling; mean counts must agree within 25% and the
		// mean per-frame difference must stay below one object.
		if math.Abs(patchSum-fullSum) > 0.25*math.Max(patchSum, fullSum) {
			t.Fatalf("p=%d: patch mean %v vs full-frame mean %v", p, patchSum/n, fullSum/n)
		}
		if absDiff/n > 1.0 {
			t.Fatalf("p=%d: mean per-frame deviation %v", p, absDiff/n)
		}
	}
}

func TestFalsePositivesBounded(t *testing.T) {
	// FP counts must be tiny relative to real objects on both corpora.
	v := dataset.MustLoad("small")
	m := YOLOv4Sim()
	var fp int
	for i := 0; i < 500; i++ {
		fp += len(m.falsePositives(v, i, 608, effectiveNoise(float64(v.Config.Lighting.NoiseSigma), 1), m.threshold(effectiveNoise(float64(v.Config.Lighting.NoiseSigma), 1))))
	}
	if fp > 50 {
		t.Fatalf("%d false positives in 500 frames", fp)
	}
}

func TestCountClass(t *testing.T) {
	ds := []Detection{
		{Class: scene.Car}, {Class: scene.Person}, {Class: scene.Car},
	}
	if CountClass(ds, scene.Car) != 2 || CountClass(ds, scene.Person) != 1 || CountClass(ds, scene.Face) != 0 {
		t.Fatal("CountClass miscounted")
	}
}
