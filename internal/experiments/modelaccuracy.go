package experiments

import (
	"fmt"

	"smokescreen/internal/evaluate"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// ModelAccuracy measures the detectors' *inherent* accuracy against scene
// ground truth across resolutions. The paper's usage model (Section 2.3)
// assumes administrators know this number and fold it into the error
// threshold they choose — profiles only measure degradation-induced error
// relative to the model's own full-quality outputs. This experiment
// supplies the missing column: precision/recall/F1 per (dataset, model,
// resolution), which is an extension of the paper's evaluation enabled by
// our simulator's ground-truth annotations (the paper had none for its
// real videos and explicitly treated model outputs as truth).
func ModelAccuracy(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "modelaccuracy",
		Title: "Detector inherent accuracy vs scene ground truth (extension)",
	}
	const iouThreshold = 0.3
	combos := []struct {
		dataset string
		model   string
	}{
		{"night-street", "mask-rcnn"},
		{"night-street", "yolov4"},
		{"ua-detrac", "yolov4"},
	}
	for _, combo := range combos {
		w := Workload{Dataset: combo.dataset, Model: combo.model}
		spec, err := w.Spec()
		if err != nil {
			return nil, err
		}
		n := spec.Video.NumFrames()
		sub := n / 20
		if !cfg.Quick {
			sub = n / 5
		}
		frames := stats.NewStream(cfg.Seed).Child(0xacc).SampleWithoutReplacement(n, sub)

		table := &Table{
			Title:  fmt.Sprintf("Model accuracy — %s / %s (cars, IoU >= %.1f, %d frames)", combo.dataset, combo.model, iouThreshold, sub),
			Header: []string{"resolution", "precision", "recall", "F1"},
		}
		resolutions := spec.Model.Resolutions(10)
		if cfg.Quick {
			resolutions = []int{spec.Model.NativeInput, 192, 64}
		}
		for _, p := range resolutions {
			m := evaluate.Corpus(spec.Video, spec.Model, scene.Car, p, frames, iouThreshold)
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%dx%d", p, p),
				fmtF(m.Precision()), fmtF(m.Recall()), fmtF(m.F1()),
			})
		}
		report.Tables = append(report.Tables, table)
	}
	report.Notes = append(report.Notes,
		"Inherent accuracy is measured against simulator ground truth; the paper's own evaluation treats model outputs as truth (Section 2.3) and never measures this")
	return report, nil
}
