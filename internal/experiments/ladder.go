package experiments

import (
	"context"
	"fmt"

	"smokescreen/internal/core"
	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/stats"
)

// LadderTradeoff profiles the built-in fidelity ladder end to end: for
// each rung of the default ladder it reports the rung's composite
// setting, the generated (repaired) error bound, the true error of the
// rung's estimate, and the detector work the rung costs — together with
// the cross-tier dedup the ladder planner achieves by sharing (view,
// resolution) work units. The claim mirrored from the paper's framing:
// stepping down the ladder trades bound tightness for privacy/cost
// monotonically, and every repaired bound still holds.
func LadderTradeoff(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "ladder",
		Title: "Fidelity ladder: per-rung bound/cost tradeoff",
	}
	workloads := []Workload{
		{Dataset: "night-street", Model: "mask-rcnn", Agg: estimate.AVG},
		{Dataset: "ua-detrac", Model: "yolov4", Agg: estimate.AVG},
	}
	if cfg.Quick {
		workloads = workloads[:1]
	}
	sys := core.New(core.WithSeed(cfg.Seed), core.WithParallelism(cfg.Parallelism))
	for _, w := range workloads {
		spec, err := w.Spec()
		if err != nil {
			return nil, err
		}
		ladder := plan.DefaultLadder(spec.Model)
		prof, err := sys.LadderProfileCtx(context.Background(), w.query(), ladder, profile.LadderOptions{})
		if err != nil {
			return nil, err
		}

		table := &Table{
			Title:  fmt.Sprintf("Ladder — %s", w),
			Header: []string{"tier", "setting", "bound", "true err", "repaired", "sampled frames"},
		}
		held := true
		for _, pt := range prof.Points {
			audit, err := spec.Audit(pt.Estimate)
			if err != nil {
				return nil, err
			}
			held = held && audit.Held
			table.Rows = append(table.Rows, []string{
				pt.Tier, pt.Setting.String(), fmtF(pt.Estimate.ErrBound), fmtF(audit.TrueError),
				fmt.Sprintf("%v", pt.Repaired), fmt.Sprintf("%d", pt.Estimate.Sample),
			})
		}
		report.Tables = append(report.Tables, table)

		// Dedup accounting: compare per-tier sampled frames against the
		// planner's deduplicated work units, planned on the stream the
		// system generates ladders on (child 3 of its seed).
		lp, err := plan.BuildLadder(context.Background(), spec.Video, spec.Model, ladder,
			stats.NewStream(cfg.Seed).Child(3))
		if err != nil {
			return nil, err
		}
		var requested, unique int
		for _, task := range lp.Tasks {
			if task.Plan != nil {
				requested += len(task.Plan.Sampled)
			}
		}
		units := lp.Units()
		for _, u := range units {
			unique += len(u.Frames)
		}
		report.Notes = append(report.Notes, fmt.Sprintf(
			"%s: %d tiers planned into %d work units; %d of %d sampled frames deduplicated; bounds held: %v",
			w, len(lp.Tasks), len(units), requested-unique, requested, held))
	}
	return report, nil
}

// Adversarial stresses the repaired bounds under the structured
// perturbations an adversarial deployment would pick — motion blur,
// coarse quantization and lens occlusion, alone and stacked. These are
// non-random interventions: the uncorrected bound may dip below the true
// error (the paper's red-circle failure), while the Algorithm 3 repaired
// bound must hold for every perturbation.
func Adversarial(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "adversarial",
		Title: "Adversarial structured perturbations: repaired bounds under blur/quantize/occlusion",
	}
	workloads := []Workload{
		{Dataset: "night-street", Model: "mask-rcnn", Agg: estimate.AVG},
		{Dataset: "ua-detrac", Model: "yolov4", Agg: estimate.MAX},
	}
	if cfg.Quick {
		workloads = workloads[:1]
	}
	f := 0.5
	if cfg.Quick {
		f = 0.1
	}
	perturbations := []struct {
		label   string
		setting degrade.Setting
	}{
		{"blur 9", degrade.Setting{SampleFraction: f, MotionBlur: 9}},
		{"blur 15", degrade.Setting{SampleFraction: f, MotionBlur: 15}},
		{"quantize 16", degrade.Setting{SampleFraction: f, Quantize: 16}},
		{"quantize 4", degrade.Setting{SampleFraction: f, Quantize: 4}},
		{"occlude 0.2", degrade.Setting{SampleFraction: f, Occlusion: 0.2}},
		{"occlude 0.4", degrade.Setting{SampleFraction: f, Occlusion: 0.4}},
		{"combined", degrade.Setting{SampleFraction: f, MotionBlur: 9, Quantize: 16, Occlusion: 0.2}},
	}
	if cfg.Quick {
		perturbations = []struct {
			label   string
			setting degrade.Setting
		}{perturbations[0], perturbations[2], perturbations[4], perturbations[6]}
	}
	for wi, w := range workloads {
		spec, err := w.Spec()
		if err != nil {
			return nil, err
		}
		corrFrac := correctionFraction(w)
		table := &Table{
			Title:  fmt.Sprintf("Adversarial — %s (f=%.2g, correction %d%%)", w, f, int(corrFrac*100)),
			Header: []string{"perturbation", "true err", "bound w/o corr", "bound w/ corr", "w/o corr unsafe", "held"},
		}
		violations := 0
		for si, p := range perturbations {
			row, err := evalSetting(spec, p.setting, corrFrac, cfg, uint64(0xadf+wi*100+si))
			if err != nil {
				return nil, err
			}
			heldRatio := row.Corrected >= row.TrueErr
			if !heldRatio {
				violations++
			}
			unsafe := ""
			if row.UncorrectedUnsafe {
				unsafe = "YES (red circle)"
			}
			table.Rows = append(table.Rows, []string{
				p.label, fmtF(row.TrueErr), fmtF(row.Uncorrected), fmtF(row.Corrected),
				unsafe, fmt.Sprintf("%v", heldRatio),
			})
		}
		report.Tables = append(report.Tables, table)
		report.Notes = append(report.Notes, fmt.Sprintf(
			"%s: repaired bound violated on %d of %d structured perturbations",
			w, violations, len(perturbations)))
	}
	return report, nil
}
