package dataset

import (
	"math"
	"testing"

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

// classFrameFraction is the fraction of v's frames holding at least one
// object of class c — the statistic the paper reports for "person" and
// "face".
func classFrameFraction(v *scene.Video, c scene.Class) float64 {
	n := 0
	for i := 0; i < v.NumFrames(); i++ {
		if classCount(v.Frame(i), c) > 0 {
			n++
		}
	}
	return float64(n) / float64(v.NumFrames())
}

// meanCount is the mean per-frame ground-truth count of class c.
func meanCount(v *scene.Video, c scene.Class) float64 {
	sum := 0
	for i := 0; i < v.NumFrames(); i++ {
		sum += classCount(v.Frame(i), c)
	}
	return float64(sum) / float64(v.NumFrames())
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	want := []string{"highway", "mvi-40771", "mvi-40775", "night-street", "small", "ua-detrac"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope"); err == nil {
		t.Fatal("Load of unknown dataset succeeded")
	}
	if _, err := Describe("nope"); err == nil {
		t.Fatal("Describe of unknown dataset succeeded")
	}
}

func TestLoadCaches(t *testing.T) {
	a := MustLoad("small")
	b := MustLoad("small")
	if a != b {
		t.Fatal("Load did not cache")
	}
}

func TestMustLoadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLoad of unknown dataset did not panic")
		}
	}()
	MustLoad("nope")
}

func TestFrameCountsMatchPaper(t *testing.T) {
	for _, name := range []string{"night-street", "ua-detrac", "mvi-40771", "mvi-40775"} {
		info, err := Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		v := MustLoad(name)
		if v.NumFrames() != info.PaperFrames {
			t.Fatalf("%s: %d frames, paper has %d", name, v.NumFrames(), info.PaperFrames)
		}
	}
}

func TestNightStreetCalibration(t *testing.T) {
	v := MustLoad("night-street")
	info, _ := Describe("night-street")
	pf := classFrameFraction(v, scene.Person)
	ff := classFrameFraction(v, scene.Face)
	if math.Abs(pf-info.PaperPersonFraction) > 0.05 {
		t.Fatalf("person fraction = %.4f, paper reports %.4f", pf, info.PaperPersonFraction)
	}
	if math.Abs(ff-info.PaperFaceFraction) > 0.03 {
		t.Fatalf("face fraction = %.4f, paper reports %.4f", ff, info.PaperFaceFraction)
	}
	mc := meanCount(v, scene.Car)
	if mc < 0.5 || mc > 2.5 {
		t.Fatalf("mean cars per frame = %v, want sparse night traffic", mc)
	}
}

func TestUADetracCalibration(t *testing.T) {
	v := MustLoad("ua-detrac")
	info, _ := Describe("ua-detrac")
	pf := classFrameFraction(v, scene.Person)
	ff := classFrameFraction(v, scene.Face)
	// Scene-level fractions sit near (slightly below) the paper's
	// detector-measured numbers; the detector-level match is asserted in
	// the experiments package where outputs are cached.
	if math.Abs(pf-info.PaperPersonFraction) > 0.12 {
		t.Fatalf("person fraction = %.4f, paper reports %.4f", pf, info.PaperPersonFraction)
	}
	if math.Abs(ff-info.PaperFaceFraction) > 0.02 {
		t.Fatalf("face fraction = %.4f, paper reports %.4f", ff, info.PaperFaceFraction)
	}
	mc := meanCount(v, scene.Car)
	if mc < 3 || mc > 12 {
		t.Fatalf("mean cars per frame = %v, want dense traffic", mc)
	}
}

func TestCorporaDiffer(t *testing.T) {
	ns := MustLoad("night-street")
	uad := MustLoad("ua-detrac")
	if meanCount(uad, scene.Car) <= meanCount(ns, scene.Car)*2 {
		t.Fatalf("UA-DETRAC (%v cars/frame) should be much denser than night-street (%v)",
			meanCount(uad, scene.Car), meanCount(ns, scene.Car))
	}
}

func TestAutocorrelationContrast(t *testing.T) {
	// UA-DETRAC is contiguous (long lifetimes); night-street was selected
	// 1-in-50 (short effective lifetimes). The lag-1 autocorrelation of the
	// car-count series must reflect that.
	autocorr := func(v *scene.Video) float64 {
		n := v.NumFrames()
		xs := make([]float64, n)
		var mean float64
		for i := 0; i < n; i++ {
			xs[i] = float64(classCount(v.Frame(i), scene.Car))
			mean += xs[i]
		}
		mean /= float64(n)
		var num, den float64
		for i := 0; i < n-1; i++ {
			num += (xs[i] - mean) * (xs[i+1] - mean)
		}
		for _, x := range xs {
			den += (x - mean) * (x - mean)
		}
		return num / den
	}
	ns := autocorr(MustLoad("night-street"))
	uad := autocorr(MustLoad("ua-detrac"))
	if uad < 0.9 {
		t.Fatalf("UA-DETRAC autocorrelation = %v, want very high", uad)
	}
	if ns > uad-0.1 {
		t.Fatalf("night-street autocorrelation (%v) should be well below UA-DETRAC (%v)", ns, uad)
	}
}

func TestSimilarVideosShareGeometry(t *testing.T) {
	a := MVI40771Config()
	b := MVI40775Config()
	if a.Lighting != b.Lighting {
		t.Fatal("similar videos must share lighting")
	}
	if a.CarRate != b.CarRate || a.CarContrast != b.CarContrast {
		t.Fatal("similar videos must share traffic parameters")
	}
	if a.Seed == b.Seed {
		t.Fatal("similar videos must be different realisations")
	}
	if a.NumFrames != 1720 || b.NumFrames != 975 {
		t.Fatalf("frame counts %d/%d, paper has 1720/975", a.NumFrames, b.NumFrames)
	}
}

func TestHighwayDistinctCharacter(t *testing.T) {
	hw := MustLoad("highway")
	if hw.NumFrames() != 8000 {
		t.Fatalf("highway frames %d", hw.NumFrames())
	}
	mc := meanCount(hw, scene.Car)
	if mc < 1.5 || mc > 5 {
		t.Fatalf("highway mean cars %v, want moderate", mc)
	}
	// Pedestrians are nearly absent — the opposite of UA-DETRAC.
	if pf := classFrameFraction(hw, scene.Person); pf > 0.1 {
		t.Fatalf("highway person fraction %v too high", pf)
	}
	// Faster traffic means weaker autocorrelation than UA-DETRAC despite
	// contiguous footage.
	autocorr := func(v *scene.Video) float64 {
		n := v.NumFrames()
		var mean float64
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(classCount(v.Frame(i), scene.Car))
			mean += xs[i]
		}
		mean /= float64(n)
		var num, den float64
		for i := 0; i < n-1; i++ {
			num += (xs[i] - mean) * (xs[i+1] - mean)
		}
		for _, x := range xs {
			den += (x - mean) * (x - mean)
		}
		return num / den
	}
	if a, b := autocorr(hw), autocorr(MustLoad("ua-detrac")); a >= b {
		t.Fatalf("highway autocorrelation %v not below UA-DETRAC %v", a, b)
	}
}

func TestPersonRateInversion(t *testing.T) {
	// personRate must invert the regime-adjusted occupancy equation.
	for _, c := range []struct {
		target   float64
		lifetime int
		busy     float64
	}{{0.1418, 12, 1.5}, {0.6586, 300, 1.7}, {0.0248, 300, 1.7}, {0.5, 100, 1.0}} {
		r := personRate(c.target, c.lifetime, c.busy)
		l := float64(c.lifetime)
		back := (1-math.Exp(-r*c.busy*l))/2 + (1-math.Exp(-r*(2-c.busy)*l))/2
		if math.Abs(back-c.target) > 1e-9 {
			t.Fatalf("personRate inversion failed: %v -> %v", c.target, back)
		}
	}
}
