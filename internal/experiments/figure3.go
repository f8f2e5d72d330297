package experiments

import (
	"fmt"

	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/stats"
)

// Figure3 reproduces the paper's Figure 3: the *real* degradation-accuracy
// tradeoff curves of the AVG car-count query against frame resolution on
// night-street and UA-DETRAC, both detected with YOLOv4. No estimation is
// involved: the curve is the true relative error of the resolution-
// degraded answer against the native-resolution answer, which is why the
// two corpora produce visibly different curves (the paper's motivation for
// video-specific profiles).
func Figure3(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "figure3",
		Title: "Real degradation-accuracy tradeoff curves (AVG cars vs resolution, YOLOv4)",
	}
	for _, datasetName := range []string{"night-street", "ua-detrac"} {
		w := Workload{Dataset: datasetName, Model: "yolov4", Agg: estimate.AVG}
		spec, err := w.Spec()
		if err != nil {
			return nil, err
		}
		resolutions := spec.Model.Resolutions(10)
		if cfg.Quick {
			resolutions = []int{spec.Model.NativeInput, 320, 96}
		}

		// The truth is the answer at native resolution over the same frame
		// set the sweep uses (in quick mode that is a fixed subset).
		truth := resolutionMean(spec, spec.Model.NativeInput, cfg)
		table := &Table{
			Title:  fmt.Sprintf("Figure 3 — %s", w),
			Header: []string{"resolution", "avg cars", "true relative error"},
		}
		for _, p := range resolutions {
			mean := resolutionMean(spec, p, cfg)
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%dx%d", p, p),
				fmtF(mean),
				fmtF(stats.RelativeError(mean, truth)),
			})
		}
		report.Tables = append(report.Tables, table)
	}
	return report, nil
}

// resolutionMean computes the degraded query answer at resolution p. In
// quick mode a fixed random subset of frames stands in for the full
// corpus; the subset is shared across resolutions so the curve shape is
// comparable.
func resolutionMean(spec *profile.Spec, p int, cfg Config) float64 {
	if !cfg.Quick {
		return stats.Mean(seriesFull(spec.Video, spec.Model, spec.Class, p))
	}
	n := spec.Video.NumFrames()
	sub := n / 10
	stream := stats.NewStream(cfg.Seed).Child(0xf13)
	frames := stream.SampleWithoutReplacement(n, sub)
	return stats.Mean(seriesAt(spec.Video, spec.Model, spec.Class, p, frames))
}
