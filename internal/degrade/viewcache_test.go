package degrade

import (
	"context"
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
)

// pixelSettings covers every pixel axis and their composition; each
// produces a distinct interned view of the corpus.
var pixelSettings = []Setting{
	{SampleFraction: 0.1, NoiseSigma: 0.2},
	{SampleFraction: 0.1, MotionBlur: 7},
	{SampleFraction: 0.1, Quantize: 16},
	{SampleFraction: 0.1, Occlusion: 0.2},
	{SampleFraction: 0.1, NoiseSigma: 0.1, MotionBlur: 9, Quantize: 32, Occlusion: 0.1},
}

// TestResetCachesFreesEveryView: every kind of pixel-axis view of a corpus
// is interned and byte-accounted in detect.Stats, and one ResetCaches drops
// the views from the intern table, their output caches, and their
// accounted bytes — nothing survives.
func TestResetCachesFreesEveryView(t *testing.T) {
	detect.ResetCaches()
	t.Cleanup(detect.ResetCaches)

	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	views := make([]*scene.Video, 0, len(pixelSettings))
	for _, s := range pixelSettings {
		ev := EffectiveVideo(v, s)
		if ev == v {
			t.Fatalf("setting %v produced no view", s)
		}
		views = append(views, ev)
		if _, err := outputs.At(context.Background(), ev, m, scene.Car, 320, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	cs := detect.Stats()
	if cs.ViewVideos != len(pixelSettings) {
		t.Fatalf("ViewVideos = %d, want %d", cs.ViewVideos, len(pixelSettings))
	}
	if cs.ViewBytes <= 0 {
		t.Fatalf("ViewBytes = %d, want > 0 (views rendered backgrounds and masks)", cs.ViewBytes)
	}
	if cs.TotalBytes() < cs.ViewBytes {
		t.Fatal("TotalBytes does not include ViewBytes")
	}

	detect.ResetCaches()
	if after := detect.Stats(); after.ViewVideos != 0 || after.TotalBytes() != 0 {
		t.Fatalf("caches retained %d views, %d bytes after ResetCaches", after.ViewVideos, after.TotalBytes())
	}
	for i, s := range pixelSettings {
		if EffectiveVideo(v, s) == views[i] {
			t.Fatalf("view for %v survived ResetCaches", s)
		}
	}
}

// TestDetectionDeterministicUnderViews pins the end-to-end determinism
// contract on the detection hot path through a pixel-transformed view:
// per-frame detections are a pure function of (view, frame), so a second
// pass from cold caches repeats the first.
func TestDetectionDeterministicUnderViews(t *testing.T) {
	t.Cleanup(detect.ResetCaches)

	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	setting := Setting{SampleFraction: 0.1, MotionBlur: 9, Quantize: 32, Occlusion: 0.1}

	counts := func() []float64 {
		detect.ResetCaches()
		ev := EffectiveVideo(v, setting)
		out := make([]float64, 0, 30)
		for i := 0; i < 30; i++ {
			out = append(out, float64(detect.CountClass(m.DetectFrame(ev, i, 320), scene.Car)))
		}
		return out
	}

	base, again := counts(), counts()
	for i := range base {
		if math.Float64bits(base[i]) != math.Float64bits(again[i]) {
			t.Fatalf("frame %d count differs between two cold passes: %v vs %v", i, base[i], again[i])
		}
	}
}

// TestViewSpecCanonical: the cache key renders only active pixel axes in
// registry order, so equal views intern to one entry.
func TestViewSpecCanonical(t *testing.T) {
	s := Setting{NoiseSigma: 0.1, MotionBlur: 7, Quantize: 32, Occlusion: 0.25}
	if got, want := s.ViewSpec(), "noise=0.1 blur=7 quant=32 occl=0.25"; got != want {
		t.Errorf("ViewSpec = %q, want %q", got, want)
	}
	if got := (Setting{SampleFraction: 0.5, Resolution: 160}).ViewSpec(); got != "" {
		t.Errorf("frame-choice axes leaked into the view spec: %q", got)
	}
	// Identity blur renders nothing; the interned view is shared.
	a := Setting{SampleFraction: 0.1, NoiseSigma: 0.2}
	b := Setting{SampleFraction: 0.9, NoiseSigma: 0.2, MotionBlur: 1}
	v := dataset.MustLoad("small")
	t.Cleanup(detect.ResetCaches)
	if EffectiveVideo(v, a) != EffectiveVideo(v, b) {
		t.Error("settings with equal views interned separately")
	}
}
