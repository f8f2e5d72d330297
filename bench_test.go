package smokescreen_test

// Micro-benchmarks of the core estimators and the detection substrate:
//
//	go test -run xxx -bench=. -benchmem
//
// End-to-end numbers (cold profiles, cubes, the fleet serve path, stream
// ingest) come from benchmark/ (BENCHMARK.json's four workloads); the
// per-figure experiments run, with assertions, as internal/experiments'
// tests, and cmd/smokebench produces the full-scale numbers recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"testing"

	"smokescreen"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/raster"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// Estimator micro-benchmarks: the per-call cost of Algorithm 1/2/3 and the
// baselines, on a representative 1000-sample input.

func benchSample(n int) ([]float64, int) {
	s := stats.NewStream(99)
	population := make([]float64, 20000)
	for i := range population {
		population[i] = float64(s.Poisson(3))
	}
	idx := s.SampleWithoutReplacement(len(population), n)
	sample := make([]float64, n)
	for i, j := range idx {
		sample[i] = population[j]
	}
	return sample, len(population)
}

func BenchmarkEstimateAVG(b *testing.B) {
	sample, N := benchSample(1000)
	p := estimate.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.Smokescreen(estimate.AVG, sample, N, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateMAX(b *testing.B) {
	sample, N := benchSample(1000)
	p := estimate.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.Smokescreen(estimate.MAX, sample, N, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateRepair(b *testing.B) {
	sample, N := benchSample(1000)
	corrSample, _ := benchSample(500)
	p := estimate.DefaultParams()
	corr, err := estimate.NewCorrection(estimate.AVG, corrSample, N, p)
	if err != nil {
		b.Fatal(err)
	}
	degraded, err := estimate.Smokescreen(estimate.AVG, sample, N, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corr.Repair(estimate.AVG, degraded, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineEBGS(b *testing.B) {
	sample, N := benchSample(1000)
	p := estimate.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := estimate.BaselineEstimate(estimate.EBGS, estimate.AVG, sample, N, p); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate micro-benchmarks.

// BenchmarkDetectFramePatch times one production detection of a frame of
// small at each of the ten candidate resolutions (cold frames cycle, so no
// cache is involved: DetectFrame reads none).
func BenchmarkDetectFramePatch(b *testing.B) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	v.Background()
	for _, p := range m.Resolutions(10) {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.DetectFrame(v, i%v.NumFrames(), p)
			}
		})
	}
}

func BenchmarkDetectFrameFull(b *testing.B) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DetectFrameFull(v, i%v.NumFrames(), 160)
	}
}

func BenchmarkRenderNative(b *testing.B) {
	v := dataset.MustLoad("small")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.RenderNative(i % v.NumFrames())
	}
}

func BenchmarkDownsample(b *testing.B) {
	v := dataset.MustLoad("small")
	img := v.RenderNative(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raster.Downsample(img, 96, 96)
	}
}

func BenchmarkSampleWithoutReplacement(b *testing.B) {
	s := stats.NewStream(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleWithoutReplacement(20000, 1000)
	}
}

func BenchmarkDegradeApply(b *testing.B) {
	v := dataset.MustLoad("small")
	m := detect.YOLOv4Sim()
	setting := degrade.Setting{SampleFraction: 0.1, Resolution: 160}
	root := stats.NewStream(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := degrade.ApplyCtx(context.Background(), v, m, setting, root.Child(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepFractions(b *testing.B) {
	spec := &profile.Spec{
		Video:  dataset.MustLoad("small"),
		Model:  detect.YOLOv4Sim(),
		Class:  scene.Car,
		Agg:    estimate.AVG,
		Params: estimate.DefaultParams(),
	}
	opts := profile.SweepOptions{Fractions: []float64{0.02, 0.05, 0.1}}
	root := stats.NewStream(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.SweepFractionsCtx(context.Background(), spec, opts, root.Child(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure6-shaped dedup bench: one op generates the hypercube for every
// class the model knows over one corpus — the administrator's Figure 6
// workload, where person, face and car curves all come from the same
// degraded views. The simulated detectors (like the real YOLOv4/Mask
// R-CNN) emit every class in one pass, so the column store serves all
// three hypercubes from one detection per (frame, resolution); the
// invocation count and the per-stage wall time (plan/detect/estimate, from
// the pipeline's stage accounting) are reported alongside.

func BenchmarkHypercubeFigure6Dedup(b *testing.B) {
	classes := []scene.Class{scene.Car, scene.Person, scene.Face}
	root := stats.NewStream(7)
	specs := make([]*profile.Spec, len(classes))
	cubeOpts := make([]profile.HypercubeOptions, len(classes))
	for ci, class := range classes {
		specs[ci] = &profile.Spec{
			Video:  dataset.MustLoad("small"),
			Model:  detect.YOLOv4Sim(),
			Class:  class,
			Agg:    estimate.AVG,
			Params: estimate.DefaultParams(),
		}
		res, err := profile.ConstructCorrectionCtx(context.Background(), specs[ci], 1, root.Child(uint64(1+ci)))
		if err != nil {
			b.Fatal(err)
		}
		cubeOpts[ci] = profile.HypercubeOptions{
			Fractions:  []float64{0.02, 0.1},
			Correction: res.Correction,
		}
	}
	var invocations int64
	var stages plan.StageStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		detect.ResetCaches()
		b.StartTimer()
		before, s0 := detect.Invocations(), plan.Stages()
		for ci := range specs {
			// One sampling plan for the whole family (same stream child):
			// every class's hypercube sweeps the same degraded views, which
			// is both what an administrator comparing classes wants and what
			// lets the column store detect each view exactly once.
			if _, err := profile.GenerateHypercubeCtx(context.Background(), specs[ci], cubeOpts[ci], root.Child(2)); err != nil {
				b.Fatal(err)
			}
		}
		invocations += detect.Invocations() - before
		s := plan.Stages()
		stages.PlanNS += s.PlanNS - s0.PlanNS
		stages.DetectNS += s.DetectNS - s0.DetectNS
		stages.EstimateNS += s.EstimateNS - s0.EstimateNS
		stages.DedupSavedFrames += s.DedupSavedFrames - s0.DedupSavedFrames
	}
	n := float64(b.N)
	b.ReportMetric(float64(invocations)/n, "invocations/op")
	b.ReportMetric(float64(stages.PlanNS)/n, "plan-ns/op")
	b.ReportMetric(float64(stages.DetectNS)/n, "detect-ns/op")
	b.ReportMetric(float64(stages.EstimateNS)/n, "estimate-ns/op")
	b.ReportMetric(float64(stages.DedupSavedFrames)/n, "dedup-saved-frames/op")
}

// Ablation benches for the DESIGN.md call-outs: the single-n confidence
// construction vs EBGS's any-time schedule, and Hoeffding-Serfling vs the
// empirical Bernstein inequality inside Algorithm 1.

func BenchmarkAblationBoundTightness(b *testing.B) {
	sample, N := benchSample(200)
	p := estimate.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ours, _ := estimate.Smokescreen(estimate.AVG, sample, N, p)
		hs, _ := estimate.BaselineEstimate(estimate.HoeffdingSerfling, estimate.AVG, sample, N, p)
		ebgs, _ := estimate.BaselineEstimate(estimate.EBGS, estimate.AVG, sample, N, p)
		if ours.ErrBound > hs.ErrBound || ours.ErrBound > ebgs.ErrBound {
			b.Fatal("tightness ordering violated")
		}
	}
}

func BenchmarkEndToEndQuery(b *testing.B) {
	sys := smokescreen.New(smokescreen.WithSeed(11))
	q, err := smokescreen.ParseQuery("SELECT AVG(count(car)) FROM small SAMPLE 0.1")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ExecuteCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}
