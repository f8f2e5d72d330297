package detect

import (
	"reflect"
	"sync"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/scene"
)

// probeCases are the (model, class) pairs the presence gates sweep: the two
// the prior-information protocol uses (YOLOv4 person, MTCNN face), the
// other multi-class pairs a probe could be asked, and a class the model
// cannot report at all.
var probeCases = []struct {
	name  string
	model func() *Model
	class scene.Class
}{
	{"yolov4/person", YOLOv4Sim, scene.Person},
	{"yolov4/car", YOLOv4Sim, scene.Car},
	{"mask-rcnn/person", MaskRCNNSim, scene.Person},
	{"mtcnn/face", MTCNNSim, scene.Face},
	{"mtcnn/person", MTCNNSim, scene.Person},
}

// probeResolutions returns the model's native input size, one mid and one
// low valid resolution.
func probeResolutions(m *Model) [3]int {
	snap := func(p int) int { return maxInt(m.InputMultiple, p/m.InputMultiple*m.InputMultiple) }
	return [3]int{m.NativeInput, snap(m.NativeInput / 2), snap(m.NativeInput / 5)}
}

// probeOutcome tallies what a sweep of checkProbe calls saw, so a gate can
// tell that it exercised both ways a probe ends.
type probeOutcome struct{ early, complete int }

// checkProbe is the differential contract of ProbeFrame against the
// unmodified question it abbreviates: present is exactly "DetectFrame
// reports a c", a probe that ran to completion returns DetectFrame's
// detections in DetectFrame's order, and one that did not returns none.
func checkProbe(t testing.TB, m *Model, v *scene.Video, i, p int, c scene.Class, tally *probeOutcome) {
	t.Helper()
	want := m.DetectFrame(v, i, p)
	present, dets, complete := m.ProbeFrame(v, i, p, c)
	if present != (CountClass(want, c) > 0) {
		t.Fatalf("%s %s frame %d p=%d: probe says present=%v, DetectFrame reports %d", m.Name, c, i, p, present, CountClass(want, c))
	}
	switch {
	case complete:
		tally.complete++
		if !reflect.DeepEqual(dets, want) {
			t.Fatalf("%s %s frame %d p=%d: complete probe returned %+v, DetectFrame %+v", m.Name, c, i, p, dets, want)
		}
	case dets != nil:
		t.Fatalf("%s %s frame %d p=%d: incomplete probe returned detections %+v", m.Name, c, i, p, dets)
	case m.CanDetect(c):
		tally.early++
		if !present {
			t.Fatalf("%s %s frame %d p=%d: probe stopped early on an absent class", m.Name, c, i, p)
		}
	case present:
		t.Fatalf("%s reported a %s it cannot detect (frame %d p=%d)", m.Name, c, i, p)
	}
}

// TestProbeFrameMatchesDetectFrame is the presence protocol's differential
// gate and must never be loosened for a performance change: every frame of
// every corpus that loads in test time (night-street strided), five
// (model, class) pairs, native/mid/low resolution.
func TestProbeFrameMatchesDetectFrame(t *testing.T) {
	corpora := []struct {
		name   string
		stride int
	}{{"small", 1}, {"mvi-40775", 1}, {"highway", 1}, {"night-street", 16}}
	if raceEnabled {
		for k := range corpora {
			corpora[k].stride *= 16
		}
	}
	var mu sync.Mutex
	totals := make([]probeOutcome, len(probeCases))
	t.Run("corpora", func(t *testing.T) {
		for _, corpus := range corpora {
			corpus := corpus
			t.Run(corpus.name, func(t *testing.T) {
				t.Parallel()
				v := dataset.MustLoad(corpus.name)
				for k, pc := range probeCases {
					m := pc.model()
					var tally probeOutcome
					for _, p := range probeResolutions(m) {
						for i := 0; i < v.NumFrames(); i += corpus.stride {
							checkProbe(t, m, v, i, p, pc.class, &tally)
						}
					}
					mu.Lock()
					totals[k].early += tally.early
					totals[k].complete += tally.complete
					mu.Unlock()
				}
			})
		}
	})
	for k, pc := range probeCases {
		if can := pc.model().CanDetect(pc.class); can && (totals[k].early == 0 || totals[k].complete == 0) {
			t.Errorf("%s: %d early exits, %d complete probes: one side of the contract went unexercised", pc.name, totals[k].early, totals[k].complete)
		} else if !can && totals[k] != (probeOutcome{}) {
			t.Errorf("%s: an undetectable class was evaluated: %+v", pc.name, totals[k])
		}
		t.Logf("%s: %d early exits, %d complete probes", pc.name, totals[k].early, totals[k].complete)
	}
}

// TestProbeFrameCountsAsOneInvocation pins the accounting: a probe is one
// model invocation whether or not it exits early (the paper-facing cost
// unit must not be flattered), and asking a model for a class it cannot
// report costs nothing.
func TestProbeFrameCountsAsOneInvocation(t *testing.T) {
	v := dataset.MustLoad("small")
	yolo, mtcnn := YOLOv4Sim(), MTCNNSim()
	before := Invocations()
	for i := 0; i < 50; i++ {
		yolo.ProbeFrame(v, i, yolo.NativeInput, scene.Person)
	}
	if got := Invocations() - before; got != 50 {
		t.Fatalf("50 probes counted %d invocations", got)
	}
	before = Invocations()
	for i := 0; i < 50; i++ {
		if present, dets, complete := mtcnn.ProbeFrame(v, i, mtcnn.NativeInput, scene.Person); present || dets != nil || complete {
			t.Fatalf("frame %d: MTCNN person probe = (%v, %v, %v)", i, present, dets, complete)
		}
	}
	if got := Invocations() - before; got != 0 {
		t.Fatalf("probing an undetectable class counted %d invocations", got)
	}
}

// FuzzProbeFrame drives the differential contract from fuzzed (corpus,
// pair, resolution, frame) coordinates.
func FuzzProbeFrame(f *testing.F) {
	corpora := []*scene.Video{dataset.MustLoad("small"), dataset.MustLoad("mvi-40775")}
	f.Add(uint8(0), uint8(0), uint16(608), uint32(0))
	f.Add(uint8(0), uint8(1), uint16(320), uint32(7))
	f.Add(uint8(1), uint8(2), uint16(128), uint32(974))
	f.Add(uint8(0), uint8(3), uint16(640), uint32(1199))
	f.Add(uint8(1), uint8(4), uint16(16), uint32(311))
	f.Fuzz(func(t *testing.T, corpus, pair uint8, res uint16, frame uint32) {
		v := corpora[int(corpus)%len(corpora)]
		pc := probeCases[int(pair)%len(probeCases)]
		m := pc.model()
		steps := m.NativeInput / m.InputMultiple
		p := (int(res)%steps + 1) * m.InputMultiple
		var tally probeOutcome
		checkProbe(t, m, v, int(frame)%v.NumFrames(), p, pc.class, &tally)
	})
}
