package experiments

import (
	"context"
	"fmt"
	"time"

	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/stats"
)

func init() { register("timing", Timing) }

// Timing reproduces the paper's Section 5.3.1 profile-generation time
// analysis: profiling the AVG car query with YOLOv4 on UA-DETRAC under ten
// resolution candidates with the determined correction fraction (0.04) as
// the largest sample fraction. The paper reports 6084 model invocations
// (10 x 4% of 15210 frames) dominating the total time, with the
// estimation stage taking only tens of milliseconds — the same structure
// must hold here because model outputs are evaluated lazily per sampled
// frame and reused across ascending fractions.
func Timing(cfg Config) (*Report, error) {
	w := Workload{Dataset: "ua-detrac", Model: "yolov4", Agg: estimate.AVG}
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	maxFraction := 0.04
	resolutions := spec.Model.Resolutions(10)
	fractions := []float64{0.01, 0.02, 0.03, 0.04}
	if cfg.Quick {
		resolutions = resolutions[:3]
		fractions = fractions[:2]
		maxFraction = 0.02
	}

	// Cold caches so invocation counting reflects one full profile run.
	detect.ResetCaches()
	root := stats.NewStream(cfg.Seed).Child(0xb00)
	start := time.Now()
	invStart := detect.Invocations()

	corr, err := profile.BuildCorrectionAt(spec, int(maxFraction*float64(spec.Video.NumFrames())), root.Child(1))
	if err != nil {
		return nil, err
	}
	for ri, p := range resolutions {
		_, err := profile.SweepFractionsCtx(context.Background(), spec, profile.SweepOptions{
			Fractions:  fractions,
			Setting:    degrade.Setting{Resolution: p},
			Correction: corr,
		}, root.ChildN(2, uint64(ri)))
		if err != nil {
			return nil, err
		}
	}
	totalTime := time.Since(start)
	invocations := detect.Invocations() - invStart

	// Second pass over warm caches isolates the estimation stage: the
	// model outputs are cached, so this measures everything except
	// inference.
	estStart := time.Now()
	for ri, p := range resolutions {
		if _, err := profile.SweepFractionsCtx(context.Background(), spec, profile.SweepOptions{
			Fractions:  fractions,
			Setting:    degrade.Setting{Resolution: p},
			Correction: corr,
		}, root.ChildN(2, uint64(ri))); err != nil {
			return nil, err
		}
	}
	estimationTime := time.Since(estStart)
	modelTime := totalTime - estimationTime
	if modelTime < 0 {
		modelTime = 0
	}

	report := &Report{
		ID:    "timing",
		Title: "Profile-generation time breakdown (Section 5.3.1)",
	}
	table := &Table{
		Title:  fmt.Sprintf("Timing — %s, %d resolutions, fractions up to %.2f", w, len(resolutions), maxFraction),
		Header: []string{"quantity", "value"},
		Rows: [][]string{
			{"model invocations", fmt.Sprintf("%d", invocations)},
			{"expected (paper)", fmt.Sprintf("%d (= 10 x 4%% of 15210, plus the correction set)", 6084)},
			{"total profile time", totalTime.Round(time.Millisecond).String()},
			{"estimation-only time", estimationTime.Round(time.Millisecond).String()},
			{"model (inference) time", modelTime.Round(time.Millisecond).String()},
		},
	}
	report.Tables = append(report.Tables, table)
	if estimationTime*5 < modelTime {
		report.Notes = append(report.Notes,
			"Reproduced: model processing dominates profile generation; the estimation stage is negligible")
	} else {
		report.Notes = append(report.Notes, fmt.Sprintf(
			"WARNING: estimation time %v not negligible against model time %v", estimationTime, modelTime))
	}
	return report, nil
}
