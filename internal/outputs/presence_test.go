package outputs

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
)

// presenceModel mirrors Presence's protocol choice for the oracle.
func presenceModel(c scene.Class) *detect.Model {
	if c == scene.Face {
		return detect.MTCNNSim()
	}
	return detect.YOLOv4Sim()
}

// presenceOracle is the definition Presence abbreviates: the full native
// count column, thresholded. It leaves the caches cold.
func presenceOracle(t testing.TB, v *scene.Video, c scene.Class) (present []bool, counts []float64) {
	t.Helper()
	detect.ResetCaches()
	m := presenceModel(c)
	counts, err := Full(context.Background(), v, m, c, m.NativeInput)
	if err != nil {
		t.Fatal(err)
	}
	present = make([]bool, len(counts))
	for i, n := range counts {
		present[i] = n > 0
	}
	detect.ResetCaches()
	return present, counts
}

// TestPresenceMatchesFullColumnOracle is the store-level half of the
// presence protocol's differential gate (detect's TestProbeFrameMatches-
// DetectFrame is the per-frame half): from a cold table, from a table that
// already holds some rows and from a full table, Presence is the
// thresholded native column, every row it leaves behind is the row a count
// query would have computed, and a second call costs nothing.
func TestPresenceMatchesFullColumnOracle(t *testing.T) {
	ctx := context.Background()
	for _, corpus := range []string{"small", "mvi-40775"} {
		v := dataset.MustLoad(corpus)
		n := v.NumFrames()
		for _, c := range []scene.Class{scene.Person, scene.Face} {
			m := presenceModel(c)
			want, counts := presenceOracle(t, v, c)
			states := []struct {
				name string
				prep func()
			}{
				{"cold", func() {}},
				{"some-rows", func() {
					var held []int
					for f := 0; f < n; f += 3 {
						held = append(held, f)
					}
					if err := Ensure(ctx, v, m, c, m.NativeInput, held); err != nil {
						t.Fatal(err)
					}
				}},
				{"full", func() {
					if _, err := Full(ctx, v, m, scene.Car, m.NativeInput); err != nil {
						t.Fatal(err)
					}
				}},
			}
			if corpus != "small" {
				states = states[:1] // the table states are corpus-independent
			}
			for _, st := range states {
				detect.ResetCaches()
				st.prep()
				held := ReadStats().FramesDetected
				before := detect.Invocations()
				got, err := Presence(ctx, v, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %s: presence differs from the full-column oracle", corpus, c, st.name)
				}
				stats := ReadStats()
				if probed := detect.Invocations() - before; probed != stats.PresenceProbes || probed != int64(n)-held {
					t.Fatalf("%s %s %s: %d invocations, %d probes counted, %d frames had no row", corpus, c, st.name, probed, stats.PresenceProbes, int64(n)-held)
				}
				if stored := int64(stats.SparseEntries) - held; stats.FullSeries == 0 && stored != stats.PresenceProbes-stats.PresenceEarlyExits {
					t.Fatalf("%s %s %s: stats %+v: the scan stored %d rows", corpus, c, st.name, stats, stored)
				}
				if stats.FramesDetected != held {
					t.Fatalf("%s %s %s: probes were counted as count-read detections: %+v", corpus, c, st.name, stats)
				}

				warm := detect.Invocations()
				again, err := Presence(ctx, v, c)
				if err != nil {
					t.Fatal(err)
				}
				if &again[0] != &got[0] || detect.Invocations() != warm {
					t.Fatalf("%s %s %s: second call did not answer from the cached bitmap", corpus, c, st.name)
				}

				// Whatever the scan stored or skipped, a count query over
				// the same table reads the oracle's column: every absent
				// frame (each has a row by now) and a stride of the rest.
				var read []int
				for f := 0; f < n; f++ {
					if !want[f] || f%7 == 0 {
						read = append(read, f)
					}
				}
				series, err := At(ctx, v, m, c, m.NativeInput, read)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range read {
					if series[i] != counts[f] {
						t.Fatalf("%s %s %s: frame %d reads %v after the scan, the oracle column %v", corpus, c, st.name, f, series[i], counts[f])
					}
				}
			}
		}
	}
	detect.ResetCaches()
}

// TestPresenceLeavesAdmissibleRows pins why a REMOVE sweep's native unit
// stays all hits: after a scan every absent frame has its row.
func TestPresenceLeavesAdmissibleRows(t *testing.T) {
	detect.ResetCaches()
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	present, err := Presence(ctx, v, scene.Person)
	if err != nil {
		t.Fatal(err)
	}
	var admissible []int
	for f, p := range present {
		if !p {
			admissible = append(admissible, f)
		}
	}
	if len(admissible) == 0 {
		t.Fatal("no admissible frame: the test pins nothing")
	}
	before := detect.Invocations()
	if err := Ensure(ctx, v, m, scene.Car, m.NativeInput, admissible); err != nil {
		t.Fatal(err)
	}
	if got := detect.Invocations() - before; got != 0 {
		t.Fatalf("reading the admissible frames after the scan invoked the detector %d times", got)
	}
	detect.ResetCaches()
}

// TestPresenceConcurrentScans races two cold Presence calls for the same
// (corpus, class) against an Ensure over overlapping native frames: no
// frame is probed twice, every invocation is accounted for as an early exit
// or a stored row, rows equal a serial run's, and the next call is free.
func TestPresenceConcurrentScans(t *testing.T) {
	ctx := context.Background()
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	n := v.NumFrames()
	want, counts := presenceOracle(t, v, scene.Person)
	var overlap []int
	for f := 0; f < n; f += 2 {
		overlap = append(overlap, f)
	}

	detect.ResetCaches()
	var wg sync.WaitGroup
	got := make([][]bool, 2)
	errs := make([]error, 3)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = Presence(ctx, v, scene.Person)
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[2] = Ensure(ctx, v, m, scene.Person, m.NativeInput, overlap)
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got[0], want) || &got[0][0] != &got[1][0] {
		t.Fatal("racing scans did not both return the one correct bitmap")
	}
	st := ReadStats()
	if st.PresenceProbes > int64(n) {
		t.Fatalf("%d probes over %d frames: some frame was probed twice", st.PresenceProbes, n)
	}
	if inv := detect.Invocations(); inv != st.FramesDetected+st.PresenceProbes {
		t.Fatalf("%d invocations, but %d detections + %d probes", inv, st.FramesDetected, st.PresenceProbes)
	}
	// Every frame has at most one row, so a frame evaluated to the end
	// twice would show as more complete evaluations than stored rows.
	if complete := st.FramesDetected + st.PresenceProbes - st.PresenceEarlyExits; complete != int64(st.SparseEntries) {
		t.Fatalf("%d complete evaluations for %d stored rows: duplicated detector work", complete, st.SparseEntries)
	}

	warm := detect.Invocations()
	if _, err := Presence(ctx, v, scene.Person); err != nil {
		t.Fatal(err)
	}
	if detect.Invocations() != warm {
		t.Fatal("a call after the racing scans invoked the detector")
	}
	series, err := At(ctx, v, m, scene.Person, m.NativeInput, overlap)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range overlap {
		if series[i] != counts[f] {
			t.Fatalf("frame %d: row holds %v persons, a serial run %v", f, series[i], counts[f])
		}
	}
	detect.ResetCaches()
}

// cancelAfter is a context that cancels itself on its k-th Err call: the
// scan's worker pool polls Err before every frame, so the scan is cut
// mid-flight at a known point.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) <= 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestPresenceCancelMidScan: a scan cancelled after real probe work caches
// no bitmap, stores no row and counts nothing, and the next call completes
// correctly.
func TestPresenceCancelMidScan(t *testing.T) {
	v := dataset.MustLoad("small")
	want, _ := presenceOracle(t, v, scene.Person)

	detect.ResetCaches()
	inner, cancel := context.WithCancel(context.Background())
	ctx := &cancelAfter{Context: inner, cancel: cancel}
	ctx.left.Store(200)
	if _, err := Presence(ctx, v, scene.Person); err != context.Canceled {
		t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
	}
	if inv := detect.Invocations(); inv == 0 || inv >= int64(v.NumFrames()) {
		t.Fatalf("scan made %d invocations before the cancel: not cut mid-flight", inv)
	}
	st := ReadStats()
	if st.SparseEntries != 0 || st.FramesDetected != 0 || st.PresenceProbes != 0 || st.PresenceEarlyExits != 0 {
		t.Fatalf("cancelled scan left state behind: %+v", st)
	}
	tb := getTable(v, detect.YOLOv4Sim().Name, detect.YOLOv4Sim().NativeInput)
	tb.mu.Lock()
	cached, claims, scanning := tb.present[scene.Person], len(tb.claim), tb.scan[scene.Person]
	tb.mu.Unlock()
	if cached != nil || claims != 0 || scanning != nil {
		t.Fatalf("cancelled scan kept a bitmap (%v), %d claims or its scan marker (%v)", cached != nil, claims, scanning != nil)
	}

	got, err := Presence(context.Background(), v, scene.Person)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scan after a cancelled one differs from the oracle")
	}
	detect.ResetCaches()
}

// TestPresenceBitmapLifecycle: the bitmap is part of its table — counted in
// the byte accounting and dropped by ResetCaches.
func TestPresenceBitmapLifecycle(t *testing.T) {
	detect.ResetCaches()
	ctx := context.Background()
	v := dataset.MustLoad("small")
	n := int64(v.NumFrames())
	scan := func() int64 {
		before := detect.Invocations()
		if _, err := Presence(ctx, v, scene.Person); err != nil {
			t.Fatal(err)
		}
		return detect.Invocations() - before
	}
	if scan() == 0 {
		t.Fatal("cold scan made no invocation")
	}
	st := ReadStats()
	rows := int64(st.SparseEntries)*(rowBytes+8) + detect.PerEntryOverhead
	if st.SparseBytes != rows+n {
		t.Fatalf("SparseBytes %d, want %d of rows + %d of bitmap", st.SparseBytes, rows, n)
	}
	if scan() != 0 {
		t.Fatal("warm scan invoked the detector")
	}
	detect.ResetCaches()
	if scan() == 0 {
		t.Fatal("the bitmap survived ResetCaches")
	}
	detect.ResetCaches()
}

var presenceSink []bool

// BenchmarkPresenceScan times one cold presence scan of small as the probe
// protocol runs it against the definition it replaced: the full native
// count column, thresholded. Compare the two only within one run.
func BenchmarkPresenceScan(b *testing.B) {
	ctx := context.Background()
	v := dataset.MustLoad("small")
	v.Background()
	for _, bc := range []struct {
		name  string
		class scene.Class
	}{{"yolov4-person", scene.Person}, {"mtcnn-face", scene.Face}} {
		m := presenceModel(bc.class)
		b.Run(bc.name+"/probe", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				detect.ResetCaches()
				present, err := Presence(ctx, v, bc.class)
				if err != nil {
					b.Fatal(err)
				}
				presenceSink = present
			}
			b.ReportMetric(float64(ReadStats().PresenceEarlyExits), "early-exits")
		})
		b.Run(bc.name+"/full-column", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				detect.ResetCaches()
				counts, err := Full(ctx, v, m, bc.class, m.NativeInput)
				if err != nil {
					b.Fatal(err)
				}
				present := make([]bool, len(counts))
				for f, n := range counts {
					present[f] = n > 0
				}
				presenceSink = present
			}
		})
	}
	detect.ResetCaches()
}
