package detect

import (
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/scene"
)

func TestModelByName(t *testing.T) {
	for _, name := range []string{"yolov4", "yolov4-sim", "mask-rcnn", "maskrcnn", "mtcnn"} {
		if _, err := ModelByName(name); err != nil {
			t.Fatalf("ModelByName(%q): %v", name, err)
		}
	}
	if _, err := ModelByName("resnet"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPaperInputConstraints(t *testing.T) {
	yolo := YOLOv4Sim()
	if yolo.NativeInput != 608 || yolo.InputMultiple != 32 {
		t.Fatalf("YOLOv4 input spec %d/%d, paper uses 608 in multiples of 32", yolo.NativeInput, yolo.InputMultiple)
	}
	mrcnn := MaskRCNNSim()
	if mrcnn.NativeInput != 640 || mrcnn.InputMultiple != 64 {
		t.Fatalf("Mask R-CNN input spec %d/%d, paper uses 640 in multiples of 64", mrcnn.NativeInput, mrcnn.InputMultiple)
	}
	if yolo.Threshold != 0.7 || mrcnn.Threshold != 0.7 {
		t.Fatal("detection thresholds should be 0.7")
	}
	if MTCNNSim().Threshold != 0.8 {
		t.Fatal("MTCNN threshold should be 0.8")
	}
}

func TestValidResolution(t *testing.T) {
	m := YOLOv4Sim()
	cases := []struct {
		p    int
		want bool
	}{
		{608, true}, {32, true}, {384, true},
		{0, false}, {-32, false}, {640, false}, {100, false}, {609, false},
	}
	for _, c := range cases {
		if got := m.ValidResolution(c.p); got != c.want {
			t.Fatalf("ValidResolution(%d) = %v", c.p, got)
		}
	}
}

func TestResolutions(t *testing.T) {
	m := YOLOv4Sim()
	rs := m.Resolutions(10)
	if len(rs) != 10 {
		t.Fatalf("got %d resolutions", len(rs))
	}
	if rs[0] != m.NativeInput {
		t.Fatalf("first resolution = %d, want native %d", rs[0], m.NativeInput)
	}
	for i, p := range rs {
		if !m.ValidResolution(p) {
			t.Fatalf("resolution %d invalid", p)
		}
		if i > 0 && p >= rs[i-1] {
			t.Fatalf("resolutions not descending: %v", rs)
		}
	}
	if got := m.Resolutions(0); got != nil {
		t.Fatalf("Resolutions(0) = %v", got)
	}
	// Asking for more than exist returns all, still descending.
	all := m.Resolutions(1000)
	if len(all) != m.NativeInput/m.InputMultiple {
		t.Fatalf("Resolutions(1000) returned %d", len(all))
	}
}

func TestCanDetect(t *testing.T) {
	if !YOLOv4Sim().CanDetect(scene.Car) || !YOLOv4Sim().CanDetect(scene.Face) {
		t.Fatal("unrestricted model should detect everything")
	}
	mt := MTCNNSim()
	if !mt.CanDetect(scene.Face) || mt.CanDetect(scene.Car) {
		t.Fatal("MTCNN should detect faces only")
	}
}

func TestDupProbabilityShape(t *testing.T) {
	m := YOLOv4Sim()
	night := dataset.MustLoad("night-street")
	day := dataset.MustLoad("ua-detrac")

	size := (m.DupSizeLo + m.DupSizeHi) / 2
	peak := m.dupProbability(night, m.DupRes, size)
	if peak != m.DupAmp {
		t.Fatalf("peak probability = %v, want %v", peak, m.DupAmp)
	}
	// Triangular falloff with resolution distance.
	near := m.dupProbability(night, m.DupRes+32, size)
	if near <= 0 || near >= peak {
		t.Fatalf("falloff at +32 = %v", near)
	}
	if got := m.dupProbability(night, m.DupRes+m.DupResWidth, size); got != 0 {
		t.Fatalf("probability at band edge = %v, want 0", got)
	}
	// Outside the size band.
	if got := m.dupProbability(night, m.DupRes, m.DupSizeHi+1); got != 0 {
		t.Fatalf("probability outside size band = %v", got)
	}
	// Daytime attenuation: the paper saw the anomaly on night-street only.
	dayProb := m.dupProbability(day, m.DupRes, size)
	if dayProb >= peak/5 {
		t.Fatalf("daytime probability %v not attenuated vs %v", dayProb, peak)
	}
	// Two-stage models have none.
	if got := MaskRCNNSim().dupProbability(night, 384, size); got != 0 {
		t.Fatalf("Mask R-CNN duplicate probability = %v", got)
	}
}

func TestConfidenceMonotone(t *testing.T) {
	m := YOLOv4Sim()
	// Larger blobs and higher contrast must never decrease confidence.
	prev := 0.0
	for area := 1; area <= 400; area += 7 {
		c := m.confidence(area, 0.2, 0.04)
		if c < prev-1e-12 {
			t.Fatalf("confidence decreased at area %d", area)
		}
		prev = c
	}
	prev = 0.0
	for contrast := 0.01; contrast < 0.5; contrast += 0.01 {
		c := m.confidence(100, contrast, 0.04)
		if c < prev-1e-12 {
			t.Fatalf("confidence decreased at contrast %v", contrast)
		}
		prev = c
	}
}

func TestThresholdFloor(t *testing.T) {
	m := YOLOv4Sim()
	if got := m.threshold(0.0001); got != m.MinContrast {
		t.Fatalf("threshold floor = %v, want %v", got, m.MinContrast)
	}
	high := m.threshold(0.2)
	if high <= m.MinContrast {
		t.Fatal("threshold should exceed the floor at high noise")
	}
}

// TestMinContrastKeepsRunSumsExact pins what floatComponents' run sums rely
// on to equal the pixel labeller's raster-order sums bit for bit: every
// model's threshold floor is at least 2^-9, and its largest input plane has
// fewer than 2^20 pixels.
func TestMinContrastKeepsRunSumsExact(t *testing.T) {
	for _, name := range []string{"yolov4", "mask-rcnn", "mtcnn"} {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.MinContrast < 1.0/512 {
			t.Errorf("%s: MinContrast %v below 2^-9", name, m.MinContrast)
		}
		if m.NativeInput*m.NativeInput >= 1<<20 {
			t.Errorf("%s: a %d-pixel input plane has 2^20 pixels or more", name, m.NativeInput)
		}
	}
}

func TestEffectiveNoise(t *testing.T) {
	if got := effectiveNoise(0.04, 0.5); got != 0.02 {
		t.Fatalf("effectiveNoise = %v, want 0.02", got)
	}
	if got := effectiveNoise(0.04, 0.01); got != 0.004 {
		t.Fatalf("effectiveNoise floor = %v, want 0.004", got)
	}
}
