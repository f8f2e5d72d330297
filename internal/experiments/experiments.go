// Package experiments reproduces every figure and headline claim of the
// paper's evaluation (Section 5). Each experiment is a pure function of a
// Config and returns a Report of text tables whose rows correspond to the
// points of the paper's plots; cmd/smokebench renders them and
// EXPERIMENTS.md records paper-versus-measured.
package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"

	"smokescreen/internal/core"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/outputs"
	"smokescreen/internal/parallel"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

// seriesAt reads the per-frame counts for explicit frames over a
// Background context. The only error outputs.At can return is context
// cancellation, which a Background root cannot produce — so instead of
// threading an impossible error through every figure driver (or worse,
// silently plotting a nil series as zeros), a failure stops the run.
func seriesAt(v *scene.Video, m *detect.Model, class scene.Class, p int, frames []int) []float64 {
	series, err := outputs.At(context.Background(), v, m, class, p, frames)
	if err != nil {
		panic(fmt.Sprintf("experiments: outputs.At over a Background context failed: %v", err))
	}
	return series
}

// seriesFull is seriesAt over the whole corpus.
func seriesFull(v *scene.Video, m *detect.Model, class scene.Class, p int) []float64 {
	series, err := outputs.Full(context.Background(), v, m, class, p)
	if err != nil {
		panic(fmt.Sprintf("experiments: outputs.Full over a Background context failed: %v", err))
	}
	return series
}

// Config scales an experiment run.
type Config struct {
	// Trials per measurement point; the paper uses 100.
	Trials int
	// Seed roots all randomness.
	Seed uint64
	// Quick trims sweeps (fewer points, smaller fractions) so tests can
	// exercise every experiment in seconds. Figures for EXPERIMENTS.md are
	// produced with Quick off.
	Quick bool
	// Parallelism bounds the worker goroutines used for per-point trial
	// loops: 1 is sequential, 0 or negative means one worker per CPU. Each
	// trial derives its randomness from a stats.Stream child keyed by the
	// trial index and results are reduced in trial order, so reports are
	// bit-for-bit identical at any worker count.
	Parallelism int
}

// DefaultConfig mirrors the paper: 100 trials.
func DefaultConfig() Config { return Config{Trials: 100, Seed: 20220612} }

// QuickConfig is the test-sized configuration.
func QuickConfig() Config { return Config{Trials: 8, Seed: 20220612, Quick: true} }

func (c Config) validate() error {
	if c.Trials < 1 {
		return fmt.Errorf("experiments: trials must be positive")
	}
	return nil
}

// trialSums runs fn for every trial on cfg.Parallelism workers and adds
// the slots each trial returns, in trial order, so every sum is
// bit-identical to a sequential loop at any worker count. Each trial must
// derive its randomness from a stream keyed by its index and return the
// same number of slots; callers divide the sums themselves.
func trialSums(cfg Config, trials int, fn func(trial int) ([]float64, error)) ([]float64, error) {
	perTrial, err := parallel.MapCtx(context.Background(), trials, cfg.Parallelism, fn)
	if err != nil {
		return nil, err
	}
	sums := make([]float64, len(perTrial[0]))
	for _, slots := range perTrial {
		for i, v := range slots {
			sums[i] += v
		}
	}
	return sums, nil
}

// Table is a rendered experiment artifact: one per figure panel.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "## %s\n\n", t.Title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// RenderCSV writes the table as RFC-4180 CSV with the title as a comment
// line, for downstream plotting tools.
func (t *Table) RenderCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*Table
	// Notes carries free-form findings (e.g. the headline percentages).
	Notes []string
}

// RenderCSV writes every table of the report as CSV blocks separated by
// blank lines, with notes as leading comment lines.
func (r *Report) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, note := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", note); err != nil {
			return err
		}
	}
	for _, t := range r.Tables {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := t.RenderCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// Render writes the whole report.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, note := range r.Notes {
		if _, err := fmt.Fprintf(w, "* %s\n", note); err != nil {
			return err
		}
	}
	if len(r.Notes) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// Runner executes one experiment.
type Runner func(Config) (*Report, error)

// registry lists the experiments in the order reports are presented: the
// calibration ground first, then the paper's figures, this reproduction's
// ladder and adversarial extensions, the timing analysis, the headline
// claims, and the ablations.
var registry = []struct {
	id  string
	run Runner
}{
	{"calibration", Calibration},
	{"figure3", Figure3},
	{"figure4", Figure4},
	{"figure5", Figure5},
	{"figure6", Figure6},
	{"figure7", Figure7},
	{"figure8", Figure8},
	{"figure9", Figure9},
	{"figure10", Figure10},
	{"ladder", LadderTradeoff},
	{"adversarial", Adversarial},
	{"timing", Timing},
	{"claims", Claims},
	{"ablations", Ablations},
	{"modelaccuracy", ModelAccuracy},
	{"bandwidth", Bandwidth},
}

// IDs lists the experiment IDs in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes the experiment with the given ID.
func Run(id string, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, e := range registry {
		if e.id == id {
			return e.run(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// Workload identifies one (dataset, model, aggregate) combination from the
// paper's Section 5.1.
type Workload struct {
	Dataset string
	Model   string
	Agg     estimate.Agg
}

// String renders the workload for table titles.
func (w Workload) String() string {
	return fmt.Sprintf("%s / %s / %s", w.Dataset, w.Model, w.Agg)
}

// query spells the workload as the query the product would be asked: the
// per-frame car count under the paper's default risk and quantile. COUNT
// carries no WHERE, so it counts the frames that contain cars.
func (w Workload) query() *query.Query {
	p := estimate.DefaultParams()
	return &query.Query{
		Agg:     w.Agg,
		Class:   scene.Car,
		Dataset: w.Dataset,
		Model:   w.Model,
		Setting: degrade.Setting{SampleFraction: 1},
		Delta:   p.Delta,
		R:       p.R,
	}
}

// Spec resolves the workload through the product's front door.
func (w Workload) Spec() (*profile.Spec, error) {
	return core.New().Resolve(w.query())
}

// paperWorkloads returns the Figure 4 grid: two datasets x four aggregate
// types, with the paper's model assignment.
func paperWorkloads() []Workload {
	var out []Workload
	for _, agg := range []estimate.Agg{estimate.AVG, estimate.SUM, estimate.COUNT, estimate.MAX} {
		out = append(out, Workload{Dataset: "night-street", Model: "mask-rcnn", Agg: agg})
	}
	for _, agg := range []estimate.Agg{estimate.AVG, estimate.SUM, estimate.COUNT, estimate.MAX} {
		out = append(out, Workload{Dataset: "ua-detrac", Model: "yolov4", Agg: agg})
	}
	return out
}

// sweepEnd returns the largest sample fraction of the Figure 4 sweep for a
// workload — the paper ends each curve where it has flattened.
func sweepEnd(w Workload) float64 {
	night := w.Dataset == "night-street"
	switch w.Agg {
	case estimate.AVG, estimate.SUM:
		if night {
			return 0.1
		}
		return 0.06
	case estimate.MAX:
		if night {
			return 0.05
		}
		return 0.02
	case estimate.COUNT:
		if night {
			return 0.0015
		}
		return 0.003
	default:
		return 0.1
	}
}

// sweepFractions returns evenly spaced fractions from end/points to end.
func sweepFractions(end float64, points int) []float64 {
	out := make([]float64, points)
	for i := range out {
		out[i] = end * float64(i+1) / float64(points)
	}
	return out
}

// samplePrefix draws a nested without-replacement sample: a prefix of a
// permutation, matching the profile package's reuse strategy.
func samplePrefix(population []float64, n int, stream *stats.Stream) []float64 {
	idx := stream.SampleWithoutReplacement(len(population), n)
	out := make([]float64, n)
	for i, j := range idx {
		out[i] = population[j]
	}
	return out
}

// fmtF formats a float for table cells.
func fmtF(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 1):
		return "inf"
	case v != 0 && math.Abs(v) < 0.001:
		return fmt.Sprintf("%.2e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// fmtPct formats a percentage.
func fmtPct(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", v)
}

// capBound truncates unbounded baseline values for averaging across
// trials; the cap is far above every plotted axis in the paper.
func capBound(v float64) float64 {
	if math.IsInf(v, 1) || v > 10 {
		return 10
	}
	return v
}
