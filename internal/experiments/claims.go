package experiments

import (
	"fmt"
	"math"

	"smokescreen/internal/estimate"
)

// Claims quantifies the paper's two headline numbers on our reproduction:
//
//   - bound tightness: "our upper bound estimation of analytical error is
//     up to 155% tighter" — the maximum, over the Figure 4 sweep, of
//     (baseline bound / Smokescreen bound - 1), against the best *safe*
//     baseline at each point (CLT is excluded: it is not a valid bound);
//   - tradeoff accuracy: "Smokescreen enables 88% more accurate
//     tradeoffs" — for an error preference threshold, compare the sample
//     fraction chosen from our bound curve against the one chosen from the
//     best safe baseline curve, measuring each choice's excess over the
//     fraction the *true* error curve would have allowed.
func Claims(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "claims",
		Title: "Headline claims: bound tightness and tradeoff accuracy",
	}

	tightness := &Table{
		Title:  "Bound tightness vs best safe baseline (max over the Figure 4 sweep)",
		Header: []string{"workload", "max tightness gain", "at fraction"},
	}
	tradeoffs := &Table{
		Title:  "Tradeoff accuracy (averaged over feasible error-preference thresholds)",
		Header: []string{"workload", "thresholds", "mean excess ours", "mean excess baseline", "improvement"},
	}

	var globalMaxGain float64
	var improvements []float64
	// A dense fraction grid (the paper's 1%-interval candidate design,
	// Section 3.3.2) so tradeoff choices are not quantised to a handful of
	// sweep points.
	points := 40
	if cfg.Quick {
		points = 10
	}
	for _, w := range paperWorkloads() {
		p, err := runPanel(w, cfg, points)
		if err != nil {
			return nil, err
		}

		// The best safe baseline's bound at a point.
		baseCurve := func(pt panelPoint) float64 {
			best := math.Inf(1)
			for _, m := range p.Methods[1:] {
				if m == estimate.CLT.String() {
					continue // not a valid bound (Figure 5)
				}
				if b := pt.Bound[m]; b < best {
					best = b
				}
			}
			return best
		}

		// Tightness: our bound against it, per point.
		maxGain, maxAt := 0.0, 0.0
		for _, pt := range p.Points {
			ours := pt.Bound["Smokescreen"]
			if ours <= 0 {
				continue
			}
			gain := (baseCurve(pt)/ours - 1) * 100
			if gain > maxGain {
				maxGain, maxAt = gain, pt.Fraction
			}
		}
		globalMaxGain = math.Max(globalMaxGain, maxGain)
		tightness.Rows = append(tightness.Rows, []string{
			w.String(), fmtPct(maxGain), fmt.Sprintf("%.4g", maxAt),
		})

		// Tradeoff accuracy: average over a range of error-preference
		// thresholds for which BOTH curves have a feasible (in-sweep)
		// choice — at any single threshold the comparison degenerates when
		// one curve saturates at the sweep edge. The threshold range spans
		// our tightest achievable bound to the best baseline's tightest.
		oursCurve := func(pt panelPoint) float64 { return pt.Bound["Smokescreen"] }
		trueCurve := func(pt panelPoint) float64 { return pt.TrueErr["Smokescreen"] }

		lastPt := p.Points[len(p.Points)-1]
		lo := oursCurve(lastPt) * 1.01 // tightest preference our curve can meet
		hi := baseCurve(lastPt) * 3    // well into the baseline's feasible range
		if !(lo > 0) || !(hi > lo) {
			continue
		}
		var wImps []float64
		var exOursSum, exBaseSum float64
		const thresholds = 12
		for ti := 0; ti < thresholds; ti++ {
			threshold := lo * math.Pow(hi/lo, float64(ti)/float64(thresholds-1))
			fTrue := chooseFraction(p, threshold, trueCurve)
			fOurs := chooseFraction(p, threshold, oursCurve)
			fBase := chooseFraction(p, threshold, baseCurve)
			if fTrue <= 0 || fOurs <= 0 {
				continue
			}
			maxF := lastPt.Fraction
			if fBase <= 0 {
				fBase = maxF // baseline never satisfies: forced to the loosest setting
			}
			excessOurs := (fOurs - fTrue) / fTrue
			excessBase := (fBase - fTrue) / fTrue
			if excessBase <= 0 {
				continue
			}
			exOursSum += excessOurs
			exBaseSum += excessBase
			wImps = append(wImps, (excessBase-excessOurs)/excessBase*100)
		}
		if len(wImps) == 0 {
			continue
		}
		var wMean float64
		for _, v := range wImps {
			wMean += v
		}
		wMean /= float64(len(wImps))
		improvements = append(improvements, wMean)
		tradeoffs.Rows = append(tradeoffs.Rows, []string{
			w.String(),
			fmt.Sprintf("%d", len(wImps)),
			fmtPct(exOursSum / float64(len(wImps)) * 100),
			fmtPct(exBaseSum / float64(len(wImps)) * 100),
			fmtPct(wMean),
		})
	}
	report.Tables = append(report.Tables, tightness, tradeoffs)

	meanImprovement := 0.0
	for _, v := range improvements {
		meanImprovement += v
	}
	if len(improvements) > 0 {
		meanImprovement /= float64(len(improvements))
	}
	report.Notes = append(report.Notes,
		fmt.Sprintf("Bound tightness gain up to %.1f%% over the best safe baseline (paper: up to 154.7%%)", globalMaxGain),
		fmt.Sprintf("Tradeoffs %.1f%% more accurate on average than the best safe baseline (paper: 88%%)", meanImprovement),
	)
	return report, nil
}

// chooseFraction returns the smallest profiled fraction whose curve value
// is within the threshold, or 0 when none qualifies.
func chooseFraction(p *panel, threshold float64, curve func(panelPoint) float64) float64 {
	best := 0.0
	for _, pt := range p.Points {
		if curve(pt) <= threshold && (best == 0 || pt.Fraction < best) {
			best = pt.Fraction
		}
	}
	return best
}
