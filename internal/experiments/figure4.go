package experiments

import (
	"fmt"
	"math"

	"smokescreen/internal/estimate"
	"smokescreen/internal/stats"
)

// panelPoint aggregates one (workload, fraction) cell over all trials.
type panelPoint struct {
	Fraction float64
	// TrueErr and Bound are per-method trial means; keys are method names
	// ("Smokescreen" plus baselines).
	TrueErr map[string]float64
	Bound   map[string]float64
	// CLTFailPct is the percentage of trials with CLT bound < true error.
	CLTFailPct float64
}

// panel is the full fraction sweep of one workload.
type panel struct {
	Workload Workload
	Points   []panelPoint
	Methods  []string // presentation order
}

// runPanel evaluates Smokescreen and every applicable baseline across the
// workload's Figure 4 fraction sweep. points <= 0 selects the figure's
// default density; the claims experiment passes a denser grid so tradeoff
// choices are not quantised away.
func runPanel(w Workload, cfg Config, points int) (*panel, error) {
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	if points <= 0 {
		points = 8
		if cfg.Quick {
			points = 4
		}
	}
	fractions := sweepFractions(sweepEnd(w), points)
	population := spec.TruePopulation()
	N := len(population)

	methods := []string{"Smokescreen"}
	var baselines []estimate.Baseline
	if w.Agg.IsExtremum() {
		baselines = estimate.ExtremumBaselines()
	} else {
		baselines = estimate.MeanBaselines()
	}
	for _, b := range baselines {
		methods = append(methods, b.String())
	}

	out := &panel{Workload: w, Methods: methods}
	root := stats.NewStream(cfg.Seed).Child(uint64(len(w.Dataset))).Child(uint64(w.Agg))
	for _, f := range fractions {
		n := int(float64(N)*f + 0.5)
		if n < 2 {
			n = 2
		}
		// Slots 2i and 2i+1 are method i's true error and bound; the last
		// counts the trials whose CLT bound fell below the true error.
		sums, err := trialSums(cfg, cfg.Trials, func(trial int) ([]float64, error) {
			slots := make([]float64, 2*len(methods)+1)
			sample := samplePrefix(population, n, root.ChildN(uint64(n), uint64(trial)))

			ours, err := estimate.Smokescreen(w.Agg, sample, N, spec.Params)
			if err != nil {
				return nil, err
			}
			audit, err := estimate.Audit(w.Agg, ours, population, spec.Params)
			if err != nil {
				return nil, err
			}
			slots[0], slots[1] = audit.TrueError, ours.ErrBound

			for bi, b := range baselines {
				be, err := estimate.BaselineEstimate(b, w.Agg, sample, N, spec.Params)
				if err != nil {
					return nil, err
				}
				bAudit, err := estimate.Audit(w.Agg, be, population, spec.Params)
				if err != nil {
					return nil, err
				}
				slots[2*bi+2], slots[2*bi+3] = capBound(bAudit.TrueError), capBound(be.ErrBound)
				if b == estimate.CLT && !bAudit.Held {
					slots[len(slots)-1] = 1
				}
			}
			return slots, nil
		})
		if err != nil {
			return nil, err
		}
		pt := panelPoint{
			Fraction: f,
			TrueErr:  map[string]float64{},
			Bound:    map[string]float64{},
		}
		for i, m := range methods {
			pt.TrueErr[m] = sums[2*i] / float64(cfg.Trials)
			pt.Bound[m] = sums[2*i+1] / float64(cfg.Trials)
		}
		pt.CLTFailPct = 100 * sums[len(sums)-1] / float64(cfg.Trials)
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Figure4 reproduces the paper's Figure 4: the true relative error of the
// estimated query result and the error bound computed by Smokescreen and
// every baseline, across the sample-fraction sweep, for four aggregate
// types on two datasets.
func Figure4(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "figure4",
		Title: "True error and error bounds vs sample fraction (Smokescreen vs baselines)",
	}
	for _, w := range paperWorkloads() {
		p, err := runPanel(w, cfg, 0)
		if err != nil {
			return nil, err
		}
		// The paper's panels plot a dashed true-error curve and a solid
		// bound curve per method; the table carries both columns.
		table := &Table{Title: fmt.Sprintf("Figure 4 — %s", w)}
		table.Header = []string{"fraction", "true err (ours)", "bound (ours)"}
		for _, m := range p.Methods[1:] {
			table.Header = append(table.Header, "true err ("+m+")", "bound ("+m+")")
		}
		for _, pt := range p.Points {
			row := []string{
				fmt.Sprintf("%.4g", pt.Fraction),
				fmtF(pt.TrueErr["Smokescreen"]),
				fmtF(pt.Bound["Smokescreen"]),
			}
			for _, m := range p.Methods[1:] {
				row = append(row, fmtF(pt.TrueErr[m]), fmtF(pt.Bound[m]))
			}
			table.Rows = append(table.Rows, row)
		}
		report.Tables = append(report.Tables, table)

		// Sanity note: the bound must dominate the true error at every
		// point for our method (the paper's blue solid above blue dashed).
		for _, pt := range p.Points {
			if pt.Bound["Smokescreen"] < pt.TrueErr["Smokescreen"] {
				report.Notes = append(report.Notes, fmt.Sprintf(
					"WARNING: %s at f=%.4g: mean bound %.4f below mean true error %.4f",
					w, pt.Fraction, pt.Bound["Smokescreen"], pt.TrueErr["Smokescreen"]))
			}
		}
	}
	return report, nil
}

// Figure5 reproduces the paper's Figure 5: the percentage of trials in
// which the CLT bound is smaller than the true error, on UA-DETRAC, across
// the fraction sweeps of the mean-type aggregates.
func Figure5(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "figure5",
		Title: "CLT bound failure rate on UA-DETRAC (bound < true error)",
	}
	for _, agg := range []estimate.Agg{estimate.AVG, estimate.SUM, estimate.COUNT} {
		w := Workload{Dataset: "ua-detrac", Model: "yolov4", Agg: agg}
		p, err := runPanel(w, cfg, 0)
		if err != nil {
			return nil, err
		}
		table := &Table{
			Title:  fmt.Sprintf("Figure 5 — %s", w),
			Header: []string{"fraction", "CLT failure rate", "nominal"},
		}
		maxFail := 0.0
		for _, pt := range p.Points {
			maxFail = math.Max(maxFail, pt.CLTFailPct)
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%.4g", pt.Fraction),
				fmtPct(pt.CLTFailPct),
				"5.0%",
			})
		}
		report.Tables = append(report.Tables, table)
		report.Notes = append(report.Notes, fmt.Sprintf(
			"%s: CLT exceeds its 5%% nominal failure rate up to %.1f%%", w, maxFail))
	}
	return report, nil
}
