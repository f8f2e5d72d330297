// Package multicam extends Smokescreen from one camera to a fleet. The
// paper's system model (Section 1) has "a set of configurable networked
// cameras" feeding one query processor; this package answers aggregate
// queries over the union of several corpora, each degraded under its own
// intervention setting, with a combined error bound that stays sound.
//
// A fleet is a list of queries: each camera is a name plus the query it
// answers (FROM, USING and the intervention clauses are the camera), and
// every camera runs through core.System.ExecuteCtx at risk delta/K — a
// union bound over the K cameras — so resolution, validation, the
// correction-set policy and the seed's stream children are the ones every
// other surface uses. A non-random camera's correction set is built from
// that camera's own delta/K, which is what makes the printed confidence
// the real one.
//
// The combination is stratified estimation in the paper's interval style:
// camera i contributes a confidence interval [LB_i, UB_i] for its own
// mean, the fleet mean lies in [sum w_i*LB_i, sum w_i*UB_i] with
// w_i = N_i/N, and the answer/bound pair follows the harmonic form of
// Theorem 3.1:
//
//	Y = 2*UB*LB/(UB+LB),  err_b = (UB-LB)/(UB+LB).
//
// AVG, SUM and COUNT combine this way; MAX/MIN rank errors and VAR do not
// compose across corpora and are rejected.
package multicam

import (
	"context"
	"fmt"

	"smokescreen/internal/core"
	"smokescreen/internal/estimate"
	"smokescreen/internal/query"
)

// Camera is one member of the fleet: a name and the query it answers. The
// query's FROM, USING and intervention clauses are the camera's own; its
// aggregate, class, predicate, CONFIDENCE and QUANTILE are the fleet's and
// must agree across cameras.
type Camera struct {
	Name  string
	Query *query.Query
}

// Fleet is a set of cameras answering one query together.
type Fleet struct {
	sys     *core.System
	cameras []Camera
	frames  []int // N_i per camera
}

// New validates and assembles a fleet executed by sys. Every camera's
// query must resolve (known dataset and model, a class the model detects,
// a valid setting), the aggregate must be AVG, SUM or COUNT, and the
// fleet-wide parts of the queries must agree.
func New(sys *core.System, cameras ...Camera) (*Fleet, error) {
	if len(cameras) == 0 {
		return nil, fmt.Errorf("multicam: at least one camera required")
	}
	f := &Fleet{sys: sys, cameras: cameras, frames: make([]int, len(cameras))}
	seen := map[string]bool{}
	for i, c := range cameras {
		if c.Name == "" {
			return nil, fmt.Errorf("multicam: camera %d has no name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("multicam: duplicate camera name %q", c.Name)
		}
		seen[c.Name] = true
		q := c.Query
		if q == nil {
			return nil, fmt.Errorf("multicam: camera %q has no query", c.Name)
		}
		if q.Agg.IsExtremum() || q.Agg == estimate.VAR {
			return nil, fmt.Errorf("multicam: camera %q: %v does not compose across cameras (rank and variance errors are corpus-local)", c.Name, q.Agg)
		}
		if what := disagreement(q, cameras[0].Query); what != "" {
			return nil, fmt.Errorf("multicam: camera %q disagrees with camera %q on the fleet's %s", c.Name, cameras[0].Name, what)
		}
		spec, err := sys.Resolve(q)
		if err != nil {
			return nil, fmt.Errorf("multicam: camera %q: %w", c.Name, err)
		}
		if err := q.Setting.Validate(spec.Model); err != nil {
			return nil, fmt.Errorf("multicam: camera %q: %w", c.Name, err)
		}
		f.frames[i] = spec.Video.NumFrames()
	}
	return f, nil
}

// disagreement names the first fleet-wide part of the query on which a
// camera differs from the fleet's first camera, or "" when they agree.
func disagreement(q, first *query.Query) string {
	switch {
	case q.Agg != first.Agg:
		return "aggregate"
	case q.Class != first.Class:
		return "class"
	case (q.Predicate == nil) != (first.Predicate == nil), q.Predicate != nil && *q.Predicate != *first.Predicate:
		return "predicate"
	case q.Delta != first.Delta:
		return "confidence"
	case q.R != first.R:
		return "quantile"
	}
	return ""
}

// Size returns the number of cameras.
func (f *Fleet) Size() int { return len(f.cameras) }

// TotalFrames returns N, the union population size.
func (f *Fleet) TotalFrames() int {
	total := 0
	for _, n := range f.frames {
		total += n
	}
	return total
}

// CameraResult is one camera's contribution to a fleet answer: the answer
// core.System.ExecuteCtx gives that camera's query at the fleet's risk
// share.
type CameraResult struct {
	Name     string
	Estimate estimate.Estimate
	Repaired bool    // bound produced by profile repair (non-random setting)
	Weight   float64 // N_i / N
}

// Result is a fleet-wide query answer.
type Result struct {
	Estimate estimate.Estimate
	Cameras  []CameraResult
}

// QueryCtx answers the fleet's aggregate over the union of all cameras'
// corpora, each degraded under its own setting, at the overall risk the
// queries' CONFIDENCE names: camera i is its query executed by the system
// at delta/K. Cancellation stops the per-camera pipeline (including its
// detector work) and returns ctx's error with no partial result.
func (f *Fleet) QueryCtx(ctx context.Context) (*Result, error) {
	k := len(f.cameras)
	totalFrames := f.TotalFrames()
	agg := f.cameras[0].Query.Agg
	out := &Result{Estimate: estimate.Estimate{N: totalFrames}}
	var (
		ubSum    float64
		lbSum    float64
		anyLoose bool
	)
	for i, c := range f.cameras {
		// Union bound: each camera runs — and builds its correction set —
		// at delta/K so the joint guarantee holds at 1-delta.
		q := *c.Query
		q.Delta /= float64(k)
		res, err := f.sys.ExecuteCtx(ctx, &q)
		if err != nil {
			return nil, fmt.Errorf("multicam: camera %q: %w", c.Name, err)
		}
		est := res.Estimate
		weight := float64(f.frames[i]) / float64(totalFrames)
		out.Cameras = append(out.Cameras, CameraResult{Name: c.Name, Estimate: est, Repaired: res.Repaired, Weight: weight})
		out.Estimate.Sample += est.Sample

		// Reconstruct the camera's mean interval from the harmonic pair:
		// |Y| = (1+err)*LB = (1-err)*UB.
		if est.ErrBound >= 1 {
			anyLoose = true
			continue
		}
		meanValue := est.Value
		if agg != estimate.AVG {
			meanValue /= float64(f.frames[i])
		}
		lbSum += weight * meanValue / (1 + est.ErrBound)
		ubSum += weight * meanValue / (1 - est.ErrBound)
	}
	if anyLoose || ubSum <= 0 {
		// A camera with a degenerate interval leaves the fleet mean
		// unbounded below: report the conservative pair.
		out.Estimate.Value = 0
		out.Estimate.ErrBound = 1
	} else {
		out.Estimate.Value = 2 * ubSum * lbSum / (ubSum + lbSum)
		out.Estimate.ErrBound = (ubSum - lbSum) / (ubSum + lbSum)
	}
	if agg != estimate.AVG {
		out.Estimate.Value *= float64(totalFrames)
	}
	return out, nil
}

// Audit checks a fleet estimate against the exact aggregate over every
// camera's non-degraded corpus, for tests and demos.
func (f *Fleet) Audit(e estimate.Estimate) (estimate.Audited, error) {
	var population []float64
	for _, c := range f.cameras {
		spec, err := f.sys.Resolve(c.Query)
		if err != nil {
			return estimate.Audited{}, fmt.Errorf("multicam: camera %q: %w", c.Name, err)
		}
		population = append(population, spec.TruePopulation()...)
	}
	first := f.cameras[0].Query
	return estimate.Audit(first.Agg, e, population, first.Params())
}
