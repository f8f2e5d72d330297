package experiments

import (
	"context"
	"fmt"

	"smokescreen/internal/camera"
	"smokescreen/internal/core"
	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/scene"
	"smokescreen/internal/server"
	"smokescreen/internal/stream"
)

// Bandwidth quantifies the benefit side of the degradation tradeoff — the
// paper's Section 1 system goals (low bandwidth, energy limits) that
// motivate intentional degradation in the first place. For a ladder of
// intervention settings, a simulated camera streams the degraded frames
// over a byte-accounted wire, and the table reports bytes on the wire,
// camera energy, and the analytical error bound the estimator attaches to
// that setting — the two axes of Figure 1, measured.
func Bandwidth(cfg Config) (*Report, error) {
	report := &Report{
		ID:    "bandwidth",
		Title: "Bandwidth/energy savings vs analytical error bound (extension)",
	}
	w := Workload{Dataset: "small", Model: "yolov4", Agg: estimate.AVG}
	sys := core.New(core.WithSeed(cfg.Seed))

	settings := []degrade.Setting{
		{SampleFraction: 0.1, Resolution: 320},
		{SampleFraction: 0.1, Resolution: 160},
		{SampleFraction: 0.05, Resolution: 160},
		{SampleFraction: 0.05, Resolution: 96, Restricted: []scene.Class{scene.Face}},
		{SampleFraction: 0.02, Resolution: 96, Restricted: []scene.Class{scene.Face}},
	}
	if cfg.Quick {
		settings = settings[:3]
	}

	table := &Table{
		Title:  "Bandwidth — small corpus, YOLOv4Sim, AVG cars",
		Header: []string{"setting", "frames", "bytes", "energy (J)", "bound"},
	}
	var baseline float64
	for si, setting := range settings {
		q := w.query()
		q.Setting = setting
		reportRow, err := streamQuery(q.String(), cfg.Seed+uint64(si))
		if err != nil {
			return nil, err
		}
		res, err := sys.ExecuteSettingCtx(context.Background(), w.query(), setting)
		if err != nil {
			return nil, err
		}
		if si == 0 {
			baseline = float64(reportRow.BytesTransmitted)
		}
		table.Rows = append(table.Rows, []string{
			setting.String(),
			fmt.Sprintf("%d", reportRow.FramesTransmitted),
			fmt.Sprintf("%d", reportRow.BytesTransmitted),
			fmt.Sprintf("%.3f", reportRow.TotalJoules()),
			fmtF(res.Estimate.ErrBound),
		})
		if si == len(settings)-1 && baseline > 0 {
			report.Notes = append(report.Notes, fmt.Sprintf(
				"Most degraded setting ships %.1f%% fewer bytes than the least degraded one",
				100*(1-float64(reportRow.BytesTransmitted)/baseline)))
		}
	}
	report.Tables = append(report.Tables, table)
	return report, nil
}

// streamQuery runs the query as one camera session through the pipeline
// every stream surface runs (server.ResolveStream → ResolvedStream.Run) and
// returns the camera's accounting.
func streamQuery(text string, seed uint64) (camera.Report, error) {
	rs, err := server.ResolveStream(server.StreamRequest{Query: text, Seed: seed, DisableDrift: true})
	if err != nil {
		return camera.Report{}, err
	}
	recv, err := stream.New(rs.Config)
	if err != nil {
		return camera.Report{}, err
	}
	return rs.Run(context.Background(), recv)
}
