package experiments

import (
	"fmt"
	"math"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// correctionFraction returns the paper's determined correction-set sizes
// (Section 5.2.2): night-street 6% for AVG and 2% for MAX; UA-DETRAC 4%
// for AVG and 2% for MAX.
func correctionFraction(w Workload) float64 {
	if w.Agg.IsExtremum() {
		return 0.02
	}
	if w.Dataset == "night-street" {
		return 0.06
	}
	return 0.04
}

// figure6Axis is one row of the figure: an intervention axis, the settings
// swept along it and their table labels.
type figure6Axis struct {
	name     string
	settings []degrade.Setting
	labels   []string
}

// figure6Row is one intervention point averaged over trials.
type figure6Row struct {
	TrueErr     float64
	Uncorrected float64
	Corrected   float64
	// UncorrectedUnsafe marks the paper's red circles: the uncorrected
	// bound fell below the true error.
	UncorrectedUnsafe bool
}

// repairTrial is one trial of the paper's repair protocol (Sections 5.2.2
// to 5.3.2): a setting's estimate without repair, a correction set of
// exactly m frames, and the Algorithm 3 bound the set puts on the estimate.
type repairTrial struct {
	Degraded estimate.Estimate // the setting's estimate, not repaired
	ErrV     float64           // err_b(v), the correction set's own bound
	Repaired float64           // Algorithm 3's bound on Degraded
}

// runRepairTrial is the one place the experiments run that protocol. The
// figures that call it hold the correction size fixed or sweep it, which
// the product's front door — sizing by the elbow — does not offer. Both
// streams are the caller's, so each figure keeps the seed path its
// committed results were drawn on.
func runRepairTrial(spec *profile.Spec, setting degrade.Setting, m int, degradeStream, corrStream *stats.Stream) (repairTrial, error) {
	degraded, err := spec.UncorrectedEstimate(setting, degradeStream)
	if err != nil {
		return repairTrial{}, err
	}
	corr, err := profile.BuildCorrectionAt(spec, m, corrStream)
	if err != nil {
		return repairTrial{}, err
	}
	repaired, err := corr.Repair(spec.Agg, degraded, spec.Params)
	if err != nil {
		return repairTrial{}, err
	}
	return repairTrial{Degraded: degraded, ErrV: corr.Estimate.ErrBound, Repaired: repaired}, nil
}

// evalSetting measures true error, uncorrected bound and corrected bound
// for one setting over cfg.Trials trials.
func evalSetting(spec *profile.Spec, setting degrade.Setting, corrFraction float64, cfg Config, streamLabel uint64) (figure6Row, error) {
	root := stats.NewStream(cfg.Seed).Child(streamLabel)
	n := spec.Video.NumFrames()
	m := int(float64(n)*corrFraction + 0.5)
	// Slots: true error, uncorrected bound, corrected bound, and whether
	// the uncorrected bound fell below the true error.
	sums, err := trialSums(cfg, cfg.Trials, func(trial int) ([]float64, error) {
		s := root.Child(uint64(trial))
		tr, err := runRepairTrial(spec, setting, m, s.Child(1), s.Child(2))
		if err != nil {
			return nil, err
		}
		corrected := tr.Repaired
		if setting.IsRandomOnly(spec.Model) {
			// Random interventions alone: the tighter of the bounds with
			// and without the correction set (Section 5.2.2).
			corrected = math.Min(corrected, tr.Degraded.ErrBound)
		}
		audit, err := spec.Audit(tr.Degraded)
		if err != nil {
			return nil, err
		}
		unsafe := 0.0
		if !audit.Held {
			unsafe = 1
		}
		return []float64{audit.TrueError, capBound(tr.Degraded.ErrBound), capBound(corrected), unsafe}, nil
	})
	if err != nil {
		return figure6Row{}, err
	}
	t := float64(cfg.Trials)
	return figure6Row{
		TrueErr:           sums[0] / t,
		Uncorrected:       sums[1] / t,
		Corrected:         sums[2] / t,
		UncorrectedUnsafe: sums[3]*2 > t,
	}, nil
}

// Figure6 reproduces the paper's Figure 6: error bounds with and without
// the correction set against the true error, for AVG and MAX on both
// datasets, under each of the three intervention axes:
//
//	row 1: reduced frame sampling (random) — the correction set tightens
//	       bounds when it carries more information than the tiny sample;
//	row 2: reduced frame resolution at f = 0.5 — the uncorrected bound can
//	       fall below the true error (the red circles), the repaired one
//	       never does;
//	row 3: image removal at f = 0.5 (f = 0.1 for UA-DETRAC "person") —
//	       same phenomenon driven by the person/car correlation.
func Figure6(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "figure6",
		Title: "Error bounds with and without the correction set (Figure 6)",
	}
	workloads := []Workload{
		{Dataset: "night-street", Model: "mask-rcnn", Agg: estimate.AVG},
		{Dataset: "night-street", Model: "mask-rcnn", Agg: estimate.MAX},
		{Dataset: "ua-detrac", Model: "yolov4", Agg: estimate.AVG},
		{Dataset: "ua-detrac", Model: "yolov4", Agg: estimate.MAX},
	}
	if cfg.Quick {
		workloads = workloads[:1]
	}
	for wi, w := range workloads {
		spec, err := w.Spec()
		if err != nil {
			return nil, err
		}
		corrFrac := correctionFraction(w)

		axes := []figure6Axis{
			samplingAxis(w, cfg),
			resolutionAxis(spec, cfg),
			removalAxis(w, cfg),
		}
		for ai, axis := range axes {
			table := &Table{
				Title:  fmt.Sprintf("Figure 6 — %s — %s (correction %d%%)", w, axis.name, int(corrFrac*100)),
				Header: []string{axis.name, "true err", "bound w/o corr", "bound w/ corr", "w/o corr unsafe"},
			}
			for si, setting := range axis.settings {
				row, err := evalSetting(spec, setting, corrFrac, cfg, uint64(wi*100+ai*10+si))
				if err != nil {
					return nil, err
				}
				unsafe := ""
				if row.UncorrectedUnsafe {
					unsafe = "YES (red circle)"
				}
				table.Rows = append(table.Rows, []string{
					axis.labels[si], fmtF(row.TrueErr), fmtF(row.Uncorrected), fmtF(row.Corrected), unsafe,
				})
			}
			report.Tables = append(report.Tables, table)
		}
	}
	return report, nil
}

// samplingAxis: pure frame-sampling sweep (random intervention).
func samplingAxis(w Workload, cfg Config) (axis figure6Axis) {
	axis.name = "sample fraction"
	fractions := []float64{0.005, 0.01, 0.02, 0.05, 0.1}
	if cfg.Quick {
		fractions = []float64{0.01, 0.05}
	}
	for _, f := range fractions {
		axis.settings = append(axis.settings, degrade.Setting{SampleFraction: f})
		axis.labels = append(axis.labels, fmt.Sprintf("%.4g", f))
	}
	return axis
}

// resolutionAxis: resolution sweep at f = 0.5.
func resolutionAxis(spec *profile.Spec, cfg Config) (axis figure6Axis) {
	axis.name = "resolution"
	resolutions := spec.Model.Resolutions(10)
	if cfg.Quick {
		// 192 and 64 are valid for every built-in model (multiples of 64).
		resolutions = []int{spec.Model.NativeInput, 192, 64}
	}
	for _, p := range resolutions {
		axis.settings = append(axis.settings, degrade.Setting{SampleFraction: 0.5, Resolution: p})
		axis.labels = append(axis.labels, fmt.Sprintf("%dx%d", p, p))
	}
	return axis
}

// removalAxis: restricted-class sweep at f = 0.5 (f = 0.1 for UA-DETRAC
// "person", whose admissible pool is under half the corpus — paper
// Section 5.2.2).
func removalAxis(w Workload, cfg Config) (axis figure6Axis) {
	axis.name = "restricted class"
	combos := []struct {
		label   string
		classes []scene.Class
	}{
		{"none", nil},
		{"face", []scene.Class{scene.Face}},
		{"person", []scene.Class{scene.Person}},
	}
	for _, combo := range combos {
		f := 0.5
		if len(combo.classes) == 1 && combo.classes[0] == scene.Person {
			// The person-admissible pool is small on dense corpora.
			f = 0.1
		}
		if cfg.Quick {
			f = f / 5
		}
		axis.settings = append(axis.settings, degrade.Setting{SampleFraction: f, Restricted: combo.classes})
		axis.labels = append(axis.labels, combo.label)
	}
	return axis
}
