package detect

import (
	"math"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/scene"
)

// TestSizeConfidenceMonotone pins the premise of evalPatch's area bound:
// a component's confidence at infinite contrast — its size response — never
// falls as its integer area grows, over every area a patch of a model input
// can hold. It also pins the smallest area each built-in model can report.
func TestSizeConfidenceMonotone(t *testing.T) {
	for _, c := range []struct {
		m       *Model
		minArea int
	}{{YOLOv4Sim(), 184}, {MaskRCNNSim(), 124}, {MTCNNSim(), 12}} {
		m, inf := c.m, math.Inf(1)
		prev, minArea := m.confidence(1, inf, m.MinContrast), 0
		for a := 1; a <= m.NativeInput*m.NativeInput; a++ {
			conf := m.confidence(a, inf, m.MinContrast)
			if conf < prev {
				t.Fatalf("%s: size confidence %v at area %d is below %v at area %d", m.Name, conf, a, prev, a-1)
			}
			if conf >= m.Threshold && minArea == 0 {
				minArea = a
			}
			prev = conf
		}
		if minArea != c.minArea {
			t.Errorf("%s: smallest reportable area %d, want %d", m.Name, minArea, c.minArea)
		}
	}
}

// areaBoundViews are the corpus views the bound is checked under: clean and
// one setting of each pixel axis.
var areaBoundViews = []struct {
	name string
	view scene.View
}{
	{"clean", scene.View{}},
	{"BLUR 9", scene.View{BlurLen: 9}},
	{"QUANTIZE 16", scene.View{Levels: 16}},
	{"OCCLUDE 0.1", scene.View{Occlusion: 0.1}},
	{"NOISE 0.05", scene.View{ExtraNoise: 0.05}},
}

// checkAreaBound evaluates one object's patch at p through evalPatch and
// through the retained oracle pipeline (patchComponentsFloatOracle +
// selectCandidate), requires the two candidates to be equal, and requires
// the oracle's candidate to be undetected when the area bound skips the
// patch. It reports whether the bound skipped.
func checkAreaBound(t *testing.T, m *Model, v *scene.Video, frame, p int, obj *scene.Object) bool {
	t.Helper()
	sx := float64(p) / float64(v.Config.Width)
	sy := float64(p) / float64(v.Config.Height)
	sigmaEff := effectiveNoise(float64(v.Config.Lighting.NoiseSigma), sx)
	tau := m.threshold(sigmaEff)
	got := m.evalPatch(v, frame, p, obj, sx, sy, sigmaEff, tau)
	region := patchRegion(&v.Config, obj, sx, sy)
	if region.Empty() {
		return false
	}
	tw, th := patchDims(region, sx, sy)
	want := candidate{objID: got.objID, scaled: got.scaled}
	m.selectCandidate(&want, patchComponentsFloatOracle(v, frame, p, obj, region, tw, th, sigmaEff, tau), obj, region, sx, sy, tau)
	skipped := m.confidence(tw*th, math.Inf(1), tau) < m.Threshold
	if skipped && want.detected {
		t.Fatalf("%s p %d frame %d obj %d: the %dx%d patch is skipped, but the oracle reports it (conf %v)",
			m.Name, p, frame, obj.ID, tw, th, want.conf)
	}
	if got != want {
		t.Fatalf("%s p %d frame %d obj %d (%dx%d, skipped %v): evalPatch %+v, oracle %+v", m.Name, p, frame, obj.ID, tw, th, skipped, got, want)
	}
	return skipped
}

// TestPatchAreaBoundIsExact runs the bound over real objects of both
// corpora at all ten candidate resolutions, clean and under each pixel axis:
// every patch it skips is one the oracle pipeline leaves undetected. At
// p = 32 every patch is skipped, so the property cannot hold vacuously.
// (A face patch is never skipped at the face model's ten resolutions: its
// context margin alone makes it large enough. FuzzPatchAreaBound reaches
// the face branch at every input.)
func TestPatchAreaBoundIsExact(t *testing.T) {
	m, limit := YOLOv4Sim(), 150
	if raceEnabled {
		limit = 15
	}
	for _, corpus := range []string{"small", "mvi-40775"} {
		for _, vw := range areaBoundViews {
			v := dataset.MustLoad(corpus).WithView(vw.view)
			objs := realObjects(v, m, 300, limit)
			for _, p := range m.Resolutions(10) {
				skipped := 0
				for _, fo := range objs {
					if checkAreaBound(t, m, v, fo.frame, p, fo.obj) {
						skipped++
					}
				}
				if p == 32 && skipped != len(objs) {
					t.Errorf("%s %s: the bound skipped %d of %d patches at p = 32, want all", corpus, vw.name, skipped, len(objs))
				}
				if testing.Verbose() {
					t.Logf("%s %s p %d: %d of %d patches skipped", corpus, vw.name, p, skipped, len(objs))
				}
			}
		}
	}
}

// FuzzPatchAreaBound drives the same property from fuzzed (corpus, view,
// model, resolution, frame, object) coordinates, over every valid input
// resolution of all three built-in models.
func FuzzPatchAreaBound(f *testing.F) {
	var videos []*scene.Video
	for _, corpus := range []string{"small", "mvi-40775"} {
		for _, vw := range areaBoundViews {
			videos = append(videos, dataset.MustLoad(corpus).WithView(vw.view))
		}
	}
	models := []*Model{YOLOv4Sim(), MaskRCNNSim(), MTCNNSim()}
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), uint32(0), uint8(0))
	f.Add(uint8(1), uint8(1), uint8(0), uint16(2), uint32(311), uint8(3))
	f.Add(uint8(0), uint8(4), uint8(1), uint16(0), uint32(57), uint8(1))
	f.Add(uint8(1), uint8(2), uint8(2), uint16(3), uint32(974), uint8(2))
	f.Fuzz(func(t *testing.T, corpus, view, model uint8, res uint16, frame uint32, obj uint8) {
		v := videos[int(corpus)%2*len(areaBoundViews)+int(view)%len(areaBoundViews)]
		m := models[int(model)%len(models)]
		p := (int(res)%(m.NativeInput/m.InputMultiple) + 1) * m.InputMultiple
		i := int(frame) % v.NumFrames()
		objects := v.Frame(i).Objects
		if len(objects) == 0 {
			return
		}
		o := &objects[int(obj)%len(objects)]
		if m.CanDetect(o.Class) {
			checkAreaBound(t, m, v, i, p, o)
		}
	})
}
