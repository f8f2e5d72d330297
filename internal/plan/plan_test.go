package plan

import (
	"context"
	"testing"
	"testing/quick"

	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/outputs"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

func TestCandidateFractions(t *testing.T) {
	fs := CandidateFractions(0.01, 0.1)
	if len(fs) != 10 {
		t.Fatalf("got %d fractions: %v", len(fs), fs)
	}
	if fs[0] != 0.01 {
		t.Fatalf("first fraction %v", fs[0])
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatal("fractions not ascending")
		}
	}
	if CandidateFractions(0, 1) != nil || CandidateFractions(0.01, 0) != nil {
		t.Fatal("degenerate inputs should return nil")
	}
}

func TestCandidateFractionsProperty(t *testing.T) {
	property := func(stepRaw, maxRaw uint8) bool {
		step := (float64(stepRaw%50) + 1) / 1000
		max := (float64(maxRaw%100) + 1) / 100
		fs := CandidateFractions(step, max)
		for _, f := range fs {
			if f <= 0 || f > max+1e-9 {
				return false
			}
		}
		return len(fs) == int(max/step+1e-9)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClassCombos(t *testing.T) {
	combos := ClassCombos()
	if len(combos) != 4 {
		t.Fatalf("got %d combos", len(combos))
	}
	if combos[0] != nil {
		t.Fatal("first combo should be the loosest (no removal)")
	}
}

// TestBuildSweepMatchesApply verifies the planner reproduces the exact
// frame sets degrade.Apply draws: a sweep task's sample is the prefix of
// the same stream permutation, so plan-first execution is bit-identical to
// the legacy apply-per-point path.
func TestBuildSweepMatchesApply(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	fractions := []float64{0.01, 0.02, 0.05}

	sw, err := BuildSweep(context.Background(), v, m, SweepSpec{Fractions: fractions}, stats.NewStream(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Tasks) != len(fractions) {
		t.Fatalf("planned %d tasks, want %d", len(sw.Tasks), len(fractions))
	}

	// Nesting: every task's sample is a prefix of the next task's.
	for i := 1; i < len(sw.Tasks); i++ {
		prev, cur := sw.Tasks[i-1].Plan.Sampled, sw.Tasks[i].Plan.Sampled
		if len(prev) > len(cur) {
			t.Fatalf("task %d sample shrank: %d -> %d", i, len(prev), len(cur))
		}
		for j := range prev {
			if prev[j] != cur[j] {
				t.Fatalf("task %d not nested at position %d", i, j)
			}
		}
	}
	last := sw.Frames()
	if len(last) != len(sw.Tasks[len(sw.Tasks)-1].Plan.Sampled) {
		t.Fatal("Frames() is not the largest task's sample")
	}
}

func TestBuildSweepInfeasibleFractions(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	// The small corpus is dense daytime traffic: restricting "person"
	// leaves a small admissible pool, so large fractions are infeasible.
	sw, err := BuildSweep(context.Background(), v, m, SweepSpec{
		Fractions: []float64{0.01, 0.9},
		Base:      degrade.Setting{Restricted: []scene.Class{scene.Person}},
	}, stats.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Tasks) >= 2 {
		t.Fatalf("infeasible fraction planned: %d tasks over pool %d", len(sw.Tasks), len(sw.Admissible))
	}
	for _, task := range sw.Tasks {
		if len(task.Plan.Sampled) > len(sw.Admissible) {
			t.Fatal("task samples beyond the admissible pool")
		}
	}
}

func TestBuildHypercubeCellStreams(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	fractions := []float64{0.01, 0.02}
	stream := stats.NewStream(11)

	h, err := BuildHypercube(context.Background(), v, m, fractions, stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Cells) != len(h.Combos)*len(h.Resolutions) {
		t.Fatalf("got %d cells, want %d", len(h.Cells), len(h.Combos)*len(h.Resolutions))
	}
	// Each cell's sample must match a sweep planned directly from the same
	// grid-coordinate child stream — the legacy per-cell derivation.
	for ci := range h.Combos {
		for ri := range h.Resolutions {
			cell := &h.Cells[ci*len(h.Resolutions)+ri]
			want, err := BuildSweep(context.Background(), v, m, SweepSpec{
				Fractions: fractions,
				Base: degrade.Setting{
					Resolution: h.Resolutions[ri],
					Restricted: h.Combos[ci],
				},
			}, stream.ChildN(uint64(ci), uint64(ri)))
			if err != nil {
				t.Fatal(err)
			}
			if cell.Sweep == nil {
				if len(want.Tasks) != 0 {
					t.Fatalf("cell (%d,%d) dropped a feasible sweep", ci, ri)
				}
				continue
			}
			if len(cell.Sweep.Tasks) != len(want.Tasks) {
				t.Fatalf("cell (%d,%d): %d tasks, want %d", ci, ri, len(cell.Sweep.Tasks), len(want.Tasks))
			}
			for i := range want.Tasks {
				got, exp := cell.Sweep.Tasks[i].Plan.Sampled, want.Tasks[i].Plan.Sampled
				if len(got) != len(exp) {
					t.Fatalf("cell (%d,%d) task %d: sample size %d, want %d", ci, ri, i, len(got), len(exp))
				}
				for j := range exp {
					if got[j] != exp[j] {
						t.Fatalf("cell (%d,%d) task %d diverges at %d", ci, ri, i, j)
					}
				}
			}
		}
	}
}

// TestHypercubeUnitsDedup verifies the plan-level dedup: class combos that
// share a resolution contribute to one work unit, and the unit's frame set
// is the sorted union — strictly smaller than the sum of the cells' frame
// sets whenever cells overlap.
func TestHypercubeUnitsDedup(t *testing.T) {
	before := Stages()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	h, err := BuildHypercube(context.Background(), v, m, []float64{0.01, 0.03}, stats.NewStream(3))
	if err != nil {
		t.Fatal(err)
	}
	units := h.Units()
	if len(units) != len(h.Resolutions) {
		t.Fatalf("got %d units, want one per resolution (%d)", len(units), len(h.Resolutions))
	}
	var requested, unique int
	seen := map[int]bool{}
	for _, u := range units {
		if seen[u.Resolution] {
			t.Fatalf("duplicate unit for resolution %d", u.Resolution)
		}
		seen[u.Resolution] = true
		for i := 1; i < len(u.Frames); i++ {
			if u.Frames[i] <= u.Frames[i-1] {
				t.Fatalf("unit frames not sorted-unique at resolution %d", u.Resolution)
			}
		}
		unique += len(u.Frames)
	}
	for i := range h.Cells {
		if sw := h.Cells[i].Sweep; sw != nil {
			requested += len(sw.Frames())
		}
	}
	if unique >= requested {
		t.Fatalf("dedup saved nothing: %d unique of %d requested", unique, requested)
	}
	st := Stages()
	if saved := st.DedupSavedFrames - before.DedupSavedFrames; saved != int64(requested-unique) {
		t.Fatalf("stage counter recorded %d saved frames, want %d", saved, requested-unique)
	}
	if st.Units-before.Units != int64(len(units)) || st.Tasks == before.Tasks {
		t.Fatalf("stage counters inconsistent: %+v after %+v", st, before)
	}
}

func TestBuildSweepCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	detect.ResetCaches()
	t.Cleanup(detect.ResetCaches)
	_, err := BuildSweep(ctx, v, m, SweepSpec{
		Fractions: []float64{0.01},
		Base:      degrade.Setting{Restricted: []scene.Class{scene.Face}},
	}, stats.NewStream(1))
	if err == nil {
		t.Fatal("cancelled planning should fail (presence protocol runs under ctx)")
	}
}

// TestPresenceScansReadPlannedNativeRows: a presence scan never probes a
// frame the plan already chose to detect at the native input on the scan's
// own table. In a cold YOLOv4 cube over small, the person scan (before the
// third combo) finds the native frames of the first two combos' cells as
// rows; the face scan runs on MTCNN's table, so it probes every frame.
func TestPresenceScansReadPlannedNativeRows(t *testing.T) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	n := int64(v.NumFrames())
	detect.ResetCaches()
	defer detect.ResetCaches()
	h, err := BuildHypercube(context.Background(), v, m, CandidateFractions(0.02, 0.1), stats.NewStream(1))
	if err != nil {
		t.Fatal(err)
	}
	planned := map[int]bool{}
	for _, cell := range h.Cells {
		if cell.CI < 2 && h.Resolutions[cell.RI] == m.NativeInput {
			for _, f := range cell.Sweep.Frames() {
				planned[f] = true
			}
		}
	}
	st := outputs.ReadStats()
	if st.FramesDetected != int64(len(planned)) {
		t.Fatalf("planning detected %d frames, want the %d native frames planned before the person scan", st.FramesDetected, len(planned))
	}
	if want := 2*n - int64(len(planned)); st.PresenceProbes != want {
		t.Fatalf("the scans probed %d frames, want %d: a planned native frame was probed", st.PresenceProbes, want)
	}
}
