package profile

import (
	"context"
	"math"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/parallel"
	"smokescreen/internal/plan"
)

// This file is the executor every profile shape shares. A fraction sweep,
// a fidelity ladder and a hypercube cell are all a list of degradation
// plans (tasks) plus the deduplicated detector work units that cover them
// (internal/plan); execution is two stages over that pair — materialise
// the units in the column store, then estimate every task from stored
// columns. The shapes differ only in how they plan and in how they lay the
// resulting points out.

// materialise is the detect stage: it fills the column store for the
// deduplicated units. Each unit targets the corpus as its tasks observe it
// — for pixel-axis settings the cached view — so the estimate stage's
// column reads hit the columns built here.
func (s *Spec) materialise(ctx context.Context, units []plan.Unit, parallelism int) error {
	defer plan.DetectTimer()()
	return parallel.ForCtx(ctx, len(units), parallelism, func(i int) error {
		effective := degrade.EffectiveVideo(s.Video, units[i].Setting)
		return outputs.Ensure(ctx, effective, s.Model, s.Class, units[i].Resolution, units[i].Frames)
	})
}

// estimateTasks is the estimate stage: one profile point per task, in
// task order. Every point is a pure function of its plan and the
// (deterministic) detector-output columns, so the points are bit-for-bit
// identical at any worker count. wrap, when non-nil, names the failed task
// in an estimator error.
//
// With earlyStop > 0 the stage applies the paper's early stopping
// (Section 3.3.2) instead of fanning out: tasks run in order on the
// calling goroutine and the loop ends once the bound improves by less than
// earlyStop between consecutive tasks, returning the points reached. That
// is inherently sequential, and lazy — callers skip materialise, so each
// point's detector work happens on demand (attributed to the estimate
// stage) and stopping actually saves invocations.
func (s *Spec) estimateTasks(ctx context.Context, tasks []*degrade.Plan, corr *estimate.Correction, earlyStop float64, parallelism int, wrap func(task int, err error) error) ([]Point, error) {
	defer plan.EstimateTimer()()
	point := func(i int) (Point, error) {
		est, err := s.estimatePlan(ctx, tasks[i], corr)
		if err != nil {
			if wrap != nil {
				err = wrap(i, err)
			}
			return Point{}, err
		}
		return Point{
			Setting:  tasks[i].Setting,
			Estimate: est,
			Repaired: corr != nil && !tasks[i].Setting.IsRandomOnly(s.Model),
		}, nil
	}
	if earlyStop <= 0 {
		return parallel.MapCtx(ctx, len(tasks), parallel.Workers(parallelism), point)
	}
	var points []Point
	prevBound := math.Inf(1)
	for i := range tasks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pt, err := point(i)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
		if prevBound-pt.Estimate.ErrBound < earlyStop && pt.Estimate.ErrBound < 1 {
			break
		}
		prevBound = pt.Estimate.ErrBound
	}
	return points, nil
}

// newProfile labels points with the spec's query identity.
func (s *Spec) newProfile(points []Point) *Profile {
	return &Profile{
		VideoName: s.Video.Config.Name,
		ModelName: s.Model.Name,
		Class:     s.Class,
		Agg:       s.Agg,
		Points:    points,
	}
}
