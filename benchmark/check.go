package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"

	"smokescreen/internal/core"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
)

// Output checks. Every check goes through recorder.check, so each failure
// raises "failed" in the result line and clears "correct".

var payloadSeed = maphash.MakeSeed()

// payloadHash fingerprints a payload for the byte-identity checks made
// inline with timed ops, where keeping or SHA-256-hashing every body would
// cost more than the GET being timed.
func payloadHash(p []byte) uint64 { return maphash.Bytes(payloadSeed, p) }

// compactJSON is the canonical form store.Put keeps: a freshly generated
// (indented) payload and a served one compare equal through it.
func compactJSON(p []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, p); err != nil {
		return p
	}
	return buf.Bytes()
}

// decodeProfile checks a profile payload's shape: it decodes, has the
// expected number of points, and every point carries a finite estimate and
// a finite non-negative bound.
func decodeProfile(payload []byte, wantPoints int) (*profile.Profile, error) {
	prof, err := profile.LoadProfile(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	if len(prof.Points) != wantPoints {
		return nil, fmt.Errorf("profile has %d points, want %d", len(prof.Points), wantPoints)
	}
	for i, pt := range prof.Points {
		e := pt.Estimate
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) || math.IsNaN(e.ErrBound) || math.IsInf(e.ErrBound, 0) || e.ErrBound < 0 {
			return nil, fmt.Errorf("point %d: value %v, bound %v", i, e.Value, e.ErrBound)
		}
	}
	return prof, nil
}

// boundStats accumulates the product's quality over one run: the mean error
// bound (err_bound_mean) and how often a bound failed to cover the true
// answer.
type boundStats struct {
	sum        float64
	n          int
	covered    int // points compared against ground truth
	violations int
	delta      float64
}

func (s *boundStats) add(errBound float64) {
	s.sum += errBound
	s.n++
}

func (s *boundStats) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// cover compares one estimate against the true answer under the paper's
// relative-error metric.
func (s *boundStats) cover(e estimate.Estimate, truth float64) {
	if truth == 0 {
		return // relative error is undefined; the product reports the same
	}
	s.covered++
	if math.Abs(e.Value-truth)/math.Abs(truth) > e.ErrBound {
		s.violations++
	}
}

// withinRisk reports whether the violation count is consistent with bounds
// that each hold with probability 1-delta: at most the binomial mean plus
// three standard deviations. Points of one profile share a nested sample, so
// this is loose; it exists to catch bounds that are plainly wrong.
func (s *boundStats) withinRisk() bool {
	n, d := float64(s.covered), s.delta
	return float64(s.violations) <= n*d+3*math.Sqrt(n*d*(1-d))
}

// served is one answered profile request, kept for the checks that run after
// timing.
type served struct {
	op      genOp
	key     string
	payload []byte
}

// profileChecker runs the deferred checks on a round's served profiles and
// accumulates their bounds.
type profileChecker struct {
	rec    *recorder
	truth  truth
	bounds boundStats
}

func newProfileChecker(rec *recorder) *profileChecker {
	return &profileChecker{rec: rec, bounds: boundStats{delta: estimate.DefaultParams().Delta}}
}

// shape checks the payload's shape and folds its points into the bound
// statistics, comparing AVG/SUM/COUNT estimates with ground truth.
func (c *profileChecker) shape(s served) bool {
	prof, err := decodeProfile(s.payload, s.op.Points)
	if !c.rec.check(err == nil, "%s: %v", s.op.Name, err) {
		return false
	}
	want, relative, err := c.truth.answer(s.op.Req.Query)
	c.rec.check(err == nil, "%s: ground truth: %v", s.op.Name, err)
	for _, pt := range prof.Points {
		c.bounds.add(pt.Estimate.ErrBound)
		if relative && err == nil {
			c.bounds.cover(pt.Estimate, want)
		}
	}
	return true
}

// same checks that another route to the profile (a re-POST, a GET, a
// regeneration) produced the first answer's bytes.
func (c *profileChecker) same(s served, route string, got []byte, err error) {
	c.rec.check(err == nil && bytes.Equal(got, s.payload), "%s: %s differs from the first answer (%v)", s.op.Name, route, err)
}

// errBoundMean closes the checks: the misses must fit the bounds' risk.
func (c *profileChecker) errBoundMean() float64 {
	b := c.bounds
	c.rec.check(b.withinRisk(), "%d of %d bounds miss the true answer, more than risk %.2f allows", b.violations, b.covered, b.delta)
	return b.mean()
}

// truth caches true answers (full native-resolution detection of a corpus)
// per query text; the columns behind them are the ground-truth columns the
// workloads build once.
type truth struct {
	answers map[string]float64
}

// answer returns the exact aggregate over the non-degraded corpus for the
// query's (corpus, class, aggregate), and whether the paper's relative-error
// metric applies to it (AVG, SUM, COUNT; extrema use a rank metric).
func (t *truth) answer(queryText string) (value float64, relative bool, err error) {
	q, err := query.Parse(queryText)
	if err != nil {
		return 0, false, err
	}
	if q.Agg != estimate.AVG && q.Agg != estimate.SUM && q.Agg != estimate.COUNT {
		return 0, false, nil
	}
	key := fmt.Sprintf("%s|%v|%v", q.Dataset, q.Class, q.Agg)
	if v, ok := t.answers[key]; ok {
		return v, true, nil
	}
	v, err := core.New().GroundTruth(q)
	if err != nil {
		return 0, false, err
	}
	if t.answers == nil {
		t.answers = map[string]float64{}
	}
	t.answers[key] = v
	return v, true, nil
}
