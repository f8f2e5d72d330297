package evaluate

import (
	"strings"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
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

func TestMetricsArithmetic(t *testing.T) {
	m := Metrics{TruePositives: 8, FalsePositives: 2, FalseNegatives: 2}
	if m.Precision() != 0.8 || m.Recall() != 0.8 {
		t.Fatalf("P=%v R=%v", m.Precision(), m.Recall())
	}
	if f1 := m.F1(); f1 < 0.799 || f1 > 0.801 {
		t.Fatalf("F1=%v", f1)
	}
	var empty Metrics
	if empty.Precision() != 1 || empty.Recall() != 1 || empty.F1() != 1 {
		t.Fatal("empty metrics should be perfect")
	}
	worst := Metrics{FalsePositives: 3, FalseNegatives: 3}
	if worst.F1() != 0 {
		t.Fatalf("worst F1 = %v", worst.F1())
	}
	sum := m
	sum.Add(worst)
	if sum.FalsePositives != 5 || sum.TruePositives != 8 {
		t.Fatalf("Add = %+v", sum)
	}
	if !strings.Contains(m.String(), "P=0.800") {
		t.Fatalf("String = %q", m.String())
	}
}

func TestMatchFrameBasics(t *testing.T) {
	frame := &scene.Frame{Objects: []scene.Object{
		{Class: scene.Car, BBox: raster.RectWH(10, 10, 40, 20)},
		{Class: scene.Car, BBox: raster.RectWH(100, 10, 40, 20)},
		{Class: scene.Person, BBox: raster.RectWH(200, 10, 10, 30)},
	}}
	dets := []detect.Detection{
		{Class: scene.Car, BBox: raster.RectWH(11, 11, 40, 20), Confidence: 0.9},  // matches gt 1
		{Class: scene.Car, BBox: raster.RectWH(300, 10, 20, 10), Confidence: 0.8}, // spurious
		{Class: scene.Person, BBox: raster.RectWH(200, 10, 10, 30), Confidence: 0.9},
	}
	m := MatchFrame(dets, frame, scene.Car, 1.0, 0.5)
	if m.TruePositives != 1 || m.FalsePositives != 1 || m.FalseNegatives != 1 {
		t.Fatalf("car metrics %+v", m)
	}
	// The person detection only counts for the person class.
	pm := MatchFrame(dets, frame, scene.Person, 1.0, 0.5)
	if pm.TruePositives != 1 || pm.FalsePositives != 0 || pm.FalseNegatives != 0 {
		t.Fatalf("person metrics %+v", pm)
	}
}

func TestMatchFrameDuplicatesAreFalsePositives(t *testing.T) {
	frame := &scene.Frame{Objects: []scene.Object{
		{Class: scene.Car, BBox: raster.RectWH(10, 10, 40, 20)},
	}}
	dets := []detect.Detection{
		{Class: scene.Car, BBox: raster.RectWH(10, 10, 40, 20), Confidence: 0.95},
		{Class: scene.Car, BBox: raster.RectWH(10, 10, 40, 20), Confidence: 0.90}, // duplicate
	}
	m := MatchFrame(dets, frame, scene.Car, 1.0, 0.5)
	if m.TruePositives != 1 || m.FalsePositives != 1 {
		t.Fatalf("duplicate handling %+v", m)
	}
}

func TestMatchFrameScale(t *testing.T) {
	// Ground truth at native 640, detections at half resolution.
	frame := &scene.Frame{Objects: []scene.Object{
		{Class: scene.Car, BBox: raster.RectWH(100, 100, 80, 40)},
	}}
	dets := []detect.Detection{
		{Class: scene.Car, BBox: raster.RectWH(50, 50, 40, 20), Confidence: 0.9},
	}
	m := MatchFrame(dets, frame, scene.Car, 0.5, 0.5)
	if m.TruePositives != 1 {
		t.Fatalf("scaled match failed: %+v", m)
	}
}

func TestCorpusHighResolutionQuality(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	frames := make([]int, 200)
	for i := range frames {
		frames[i] = i
	}
	metrics := Corpus(v, m, scene.Car, m.NativeInput, frames, 0.3)
	if metrics.Recall() < 0.6 {
		t.Fatalf("native-resolution recall %v too low: %s", metrics.Recall(), metrics)
	}
	if metrics.Precision() < 0.8 {
		t.Fatalf("native-resolution precision %v too low: %s", metrics.Precision(), metrics)
	}
}

func TestCorpusNilFramesMeansAll(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	all := Corpus(v, m, scene.Car, 160, nil, 0.3)
	total := all.TruePositives + all.FalseNegatives
	gt := 0
	for i := 0; i < v.NumFrames(); i++ {
		gt += classCount(v.Frame(i), scene.Car)
	}
	if total != gt {
		t.Fatalf("TP+FN = %d, ground-truth objects = %d", total, gt)
	}
}

func TestResolutionSweepDegrades(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	frames := make([]int, 150)
	for i := range frames {
		frames[i] = i
	}
	sweep := ResolutionSweep(v, m, scene.Car, frames, 0.3)
	if len(sweep) != 10 {
		t.Fatalf("sweep has %d points", len(sweep))
	}
	first := sweep[0].Metrics.F1()
	last := sweep[len(sweep)-1].Metrics.F1()
	if last >= first {
		t.Fatalf("F1 did not degrade across the sweep: %v -> %v", first, last)
	}
}
