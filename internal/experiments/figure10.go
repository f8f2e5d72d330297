package experiments

import (
	"fmt"
	"math"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/stats"
)

// boundAtSize computes the AVG error bound on a corpus from a sample of
// exactly size frames at resolution p, repaired with a correction set of
// corrSize frames, averaged over a few trials. It mirrors the Section 5.3.2
// protocol, where absolute sample *sizes* (not fractions) make the two
// differently-sized videos comparable. p == 0 is a point of the sampling
// sweep: native resolution, random-only, so the tighter of the bounds with
// and without the correction set applies (Section 5.2.2). An explicit p is a
// point of the resolution sweep, which reports Algorithm 3's bound at every
// point, native included, so the curve is one formula end to end.
func boundAtSize(spec *profile.Spec, p, size, corrSize int, root *stats.Stream, cfg Config, trials int) (float64, error) {
	n := spec.Video.NumFrames()
	if size > n {
		size = n
	}
	setting := degrade.Setting{SampleFraction: float64(size) / float64(n), Resolution: p}
	sums, err := trialSums(cfg, trials, func(trial int) ([]float64, error) {
		s := root.Child(uint64(trial))
		tr, err := runRepairTrial(spec, setting, corrSize, s.Child(1), s.Child(2))
		if err != nil {
			return nil, err
		}
		bound := tr.Repaired
		if p == 0 {
			bound = math.Min(bound, tr.Degraded.ErrBound)
		}
		return []float64{capBound(bound)}, nil
	})
	if err != nil {
		return 0, err
	}
	return sums[0] / float64(trials), nil
}

// Figure10 reproduces the paper's Figure 10: profile similarity between
// visually similar videos. Video A (MVI_40771, 1720 frames) is the target;
// video B (MVI_40775, 975 frames) is the same camera at a different time.
// The target profile of A uses a 500-frame correction set; when A's access
// is limited to 50 frames the profile deviates substantially, while B's
// 500-frame profile tracks A's target closely — so a similar video can
// stand in when the target is too sensitive to touch.
func Figure10(cfg Config) (*Report, error) {
	const corrTarget = 500
	wA := Workload{Dataset: "mvi-40771", Model: "yolov4", Agg: estimate.AVG}
	wB := Workload{Dataset: "mvi-40775", Model: "yolov4", Agg: estimate.AVG}
	specA, err := wA.Spec()
	if err != nil {
		return nil, err
	}
	specB, err := wB.Spec()
	if err != nil {
		return nil, err
	}
	trials := min(cfg.Trials, 10)
	root := stats.NewStream(cfg.Seed).Child(0xa00)

	report := &Report{
		ID:    "figure10",
		Title: "Profile similarity between similar videos (Figure 10)",
	}

	// Left panel: sample-size sweep at native resolution.
	sizes := []int{5, 10, 20, 30, 40, 50, 60, 80, 100}
	if cfg.Quick {
		sizes = []int{10, 30, 60}
	}
	left := &Table{
		Title:  "Figure 10 (left) — frame-sampling sweep, resolution 608x608",
		Header: []string{"sample size", "target A (corr 500)", "|A limited to 50 - target|", "|B (corr 500) - target|"},
	}
	var maxLimitedDiff, maxBDiff float64
	for _, size := range sizes {
		target, err := boundAtSize(specA, 0, size, corrTarget, root.ChildN(1, uint64(size)), cfg, trials)
		if err != nil {
			return nil, err
		}
		// Limited access: at most 50 frames of A may be touched, for the
		// sample and the correction alike.
		limitedSize := size
		if limitedSize > 50 {
			limitedSize = 50
		}
		limited, err := boundAtSize(specA, 0, limitedSize, 50, root.ChildN(2, uint64(size)), cfg, trials)
		if err != nil {
			return nil, err
		}
		similar, err := boundAtSize(specB, 0, size, corrTarget, root.ChildN(3, uint64(size)), cfg, trials)
		if err != nil {
			return nil, err
		}
		limitedDiff := math.Abs(limited - target)
		bDiff := math.Abs(similar - target)
		maxLimitedDiff = math.Max(maxLimitedDiff, limitedDiff)
		maxBDiff = math.Max(maxBDiff, bDiff)
		left.Rows = append(left.Rows, []string{
			fmt.Sprintf("%d", size), fmtF(target), fmtF(limitedDiff), fmtF(bDiff),
		})
	}
	report.Tables = append(report.Tables, left)

	// Right panel: resolution sweep at sample size 500.
	resolutions := specA.Model.Resolutions(10)
	if cfg.Quick {
		resolutions = []int{608, 320, 96}
	}
	right := &Table{
		Title:  "Figure 10 (right) — resolution sweep, sample size 500",
		Header: []string{"resolution", "A (corr 500)", "B (corr 500)", "|A - B|"},
	}
	var maxResDiff float64
	for _, p := range resolutions {
		a, err := boundAtSize(specA, p, 500, corrTarget, root.ChildN(4, uint64(p)), cfg, trials)
		if err != nil {
			return nil, err
		}
		b, err := boundAtSize(specB, p, 500, corrTarget, root.ChildN(5, uint64(p)), cfg, trials)
		if err != nil {
			return nil, err
		}
		d := math.Abs(a - b)
		maxResDiff = math.Max(maxResDiff, d)
		right.Rows = append(right.Rows, []string{fmt.Sprintf("%dx%d", p, p), fmtF(a), fmtF(b), fmtF(d)})
	}
	report.Tables = append(report.Tables, right)

	report.Notes = append(report.Notes,
		fmt.Sprintf("Similar video B tracks A's target profile within %.4f on the sampling sweep (limited-access deviation up to %.4f)", maxBDiff, maxLimitedDiff),
		fmt.Sprintf("Resolution-sweep difference between A and B is at most %.4f (paper: within 5%%)", maxResDiff),
	)
	return report, nil
}
