package experiments

import (
	"fmt"
	"math"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
)

// Figure7 reproduces the paper's Figure 7: YOLOv4 computing the average
// number of cars on night-street across a fine resolution sweep. The true
// relative error at 384x384 is abnormally *larger* than at the lower
// 320x320 — the anchor-scale resonance — and the degradation profile
// (bound with correction set) exposes it, so an administrator would not
// unknowingly pick the bad resolution.
func Figure7(cfg Config) (*Report, error) {
	w := Workload{Dataset: "night-street", Model: "yolov4", Agg: estimate.AVG}
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	resolutions := []int{608, 544, 480, 448, 416, 384, 352, 320, 288, 256, 224, 192}
	if cfg.Quick {
		resolutions = []int{608, 416, 384, 320}
	}

	report := &Report{
		ID:    "figure7",
		Title: "YOLOv4 night-street AVG anomaly at 384x384 (Figure 7)",
	}
	table := &Table{
		Title:  fmt.Sprintf("Figure 7 — %s, f=0.5", w),
		Header: []string{"resolution", "true err", "bound w/o corr", "bound w/ corr"},
	}
	corrFrac := 0.06
	var err384, err320 float64
	for ri, p := range resolutions {
		row, err := evalSetting(spec, degrade.Setting{SampleFraction: 0.5, Resolution: p}, corrFrac, cfg, uint64(0x700+ri))
		if err != nil {
			return nil, err
		}
		if p == 384 {
			err384 = row.TrueErr
		}
		if p == 320 {
			err320 = row.TrueErr
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%dx%d", p, p), fmtF(row.TrueErr), fmtF(row.Uncorrected), fmtF(row.Corrected),
		})
	}
	report.Tables = append(report.Tables, table)
	if err384 > err320 {
		report.Notes = append(report.Notes, fmt.Sprintf(
			"Anomaly reproduced: true error at 384x384 (%.4f) exceeds 320x320 (%.4f) despite the higher fidelity",
			err384, err320))
	} else {
		report.Notes = append(report.Notes, fmt.Sprintf(
			"WARNING: anomaly NOT reproduced: 384x384 err %.4f vs 320x320 err %.4f", err384, err320))
	}
	return report, nil
}

// Figure8 reproduces the paper's Figure 8: the distribution of per-frame
// predicted car counts on night-street under YOLOv4 at 608x608 (ground
// truth), 384x384 and 320x320. The 320 distribution tracks the truth; the
// 384 distribution is shifted right by the duplicate detections, which is
// what makes Figure 7's error spike.
func Figure8(cfg Config) (*Report, error) {
	w := Workload{Dataset: "night-street", Model: "yolov4", Agg: estimate.AVG}
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	resolutions := []int{608, 384, 320}

	// Histogram per resolution.
	frames := corpusFrames(spec.Video.NumFrames(), cfg, 0xf18)
	hists := make([]map[int]int, len(resolutions))
	maxCount := 0
	for ri, p := range resolutions {
		hists[ri] = map[int]int{}
		series := seriesAt(spec.Video, spec.Model, spec.Class, p, frames)
		for _, v := range series {
			c := int(v)
			hists[ri][c]++
			if c > maxCount {
				maxCount = c
			}
		}
	}

	report := &Report{
		ID:    "figure8",
		Title: "Predicted car-count distribution on night-street, YOLOv4 (Figure 8)",
	}
	table := &Table{
		Title:  "Figure 8 — frames per predicted car count",
		Header: []string{"cars in frame", "608x608 (truth)", "384x384", "320x320"},
	}
	for c := 0; c <= maxCount; c++ {
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", c),
			fmt.Sprintf("%d", hists[0][c]),
			fmt.Sprintf("%d", hists[1][c]),
			fmt.Sprintf("%d", hists[2][c]),
		})
	}
	report.Tables = append(report.Tables, table)

	mean := func(h map[int]int) float64 {
		var sum, total float64
		for c, k := range h {
			sum += float64(c) * float64(k)
			total += float64(k)
		}
		return sum / total
	}
	m608, m384, m320 := mean(hists[0]), mean(hists[1]), mean(hists[2])
	report.Notes = append(report.Notes, fmt.Sprintf(
		"Mean predicted cars: 608=%.3f, 384=%.3f, 320=%.3f — 384 deviates from the truth more than 320 (rightward shift: %v)",
		m608, m384, m320, m384 > m608 && math.Abs(m384-m608) > math.Abs(m320-m608)))
	return report, nil
}
