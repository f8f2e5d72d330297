package experiments

import (
	"fmt"

	"smokescreen/internal/dataset"
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// Calibration validates the synthetic corpora against the statistics the
// paper reports for its real datasets (Section 5.1): frame counts, and
// the detector-measured fractions of frames containing a person (YOLOv4
// at threshold 0.7) and a face (MTCNN at threshold 0.8). This is the
// ground on which every other experiment stands; EXPERIMENTS.md records
// it first.
func Calibration(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "calibration",
		Title: "Corpus calibration against the paper's Section 5.1 statistics",
	}
	table := &Table{
		Title: "Calibration — synthetic corpora vs paper",
		Header: []string{
			"dataset", "frames", "paper frames",
			"person frames", "paper person", "face frames", "paper face",
			"mean cars/frame",
		},
	}
	for _, name := range []string{"night-street", "ua-detrac"} {
		info, err := dataset.Describe(name)
		if err != nil {
			return nil, err
		}
		w := Workload{Dataset: name, Model: "yolov4", Agg: 0}
		spec, err := w.Spec()
		if err != nil {
			return nil, err
		}
		v := spec.Video
		personFrac, faceFrac := presenceFractions(v, cfg)
		meanCars := resolutionMean(spec, spec.Model.NativeInput, cfg)

		table.Rows = append(table.Rows, []string{
			name,
			fmt.Sprintf("%d", v.NumFrames()),
			fmt.Sprintf("%d", info.PaperFrames),
			fmtPct(personFrac * 100), fmtPct(info.PaperPersonFraction * 100),
			fmtPct(faceFrac * 100), fmtPct(info.PaperFaceFraction * 100),
			fmtF(meanCars),
		})
	}
	report.Tables = append(report.Tables, table)
	report.Notes = append(report.Notes,
		"Person/face fractions are detector-measured (YOLOv4 at 0.7, MTCNN at 0.8), matching the paper's protocol")
	return report, nil
}

// presenceFractions measures the detector-reported person and face frame
// fractions. Quick mode samples a tenth of the corpus.
func presenceFractions(v *scene.Video, cfg Config) (person, face float64) {
	frames := corpusFrames(v.NumFrames(), cfg, 0xca1)
	yolo := detect.YOLOv4Sim()
	mtcnn := detect.MTCNNSim()
	persons := seriesAt(v, yolo, scene.Person, yolo.NativeInput, frames)
	faces := seriesAt(v, mtcnn, scene.Face, mtcnn.NativeInput, frames)
	var pc, fc int
	for i := range frames {
		if persons[i] > 0 {
			pc++
		}
		if faces[i] > 0 {
			fc++
		}
	}
	return float64(pc) / float64(len(frames)), float64(fc) / float64(len(frames))
}

// corpusFrames lists the frames a whole-corpus measurement reads: every
// frame, or in quick mode a tenth of them drawn on the labelled stream.
func corpusFrames(n int, cfg Config, label uint64) []int {
	if cfg.Quick {
		return stats.NewStream(cfg.Seed).Child(label).SampleWithoutReplacement(n, n/10)
	}
	frames := make([]int, n)
	for i := range frames {
		frames[i] = i
	}
	return frames
}
