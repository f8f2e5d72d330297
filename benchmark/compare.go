package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is BENCHMARK.json as far as this tool reads it.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readReports reads a file of recorded runs: one report per line, as
// -record writes them or as a run's standard output holds them (result
// lines, which carry no workload, are skipped). Traced runs are skipped:
// only end-to-end metrics have bounds.
func readReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var rep report
		if json.Unmarshal(sc.Bytes(), &rep) != nil || rep.Workload == "" || rep.Trace {
			continue
		}
		out[rep.Workload] = append(out[rep.Workload], rep)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced run reports", path)
	}
	return out, nil
}

// sample is one side's values of one metric on one workload.
type sample struct{ values []float64 }

func (s sample) median() float64 { return median(s.values) }

// iqr is the distance between the first and third quartiles (the exclusive
// method, as Python's statistics.quantiles(n=4) computes it); 0 below two
// values.
func (s sample) iqr() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	v := append([]float64(nil), s.values...)
	sort.Float64s(v)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return quartile(3) - quartile(1)
}

// verdict compares side b against side a for one metric, by the rule the
// choosing-metrics guide gives: worse by more than the bound is a
// regression; when either side's own spread is wider than the bound the
// difference is unresolved unless every run of b beats every run of a; an
// improvement needs the medians to differ by more than the spread and b to
// win at least nine tenths of the run pairs (the files' i-th runs pair up).
func verdict(m benchMetric, a, b sample) (string, float64, float64) {
	ma, mb := a.median(), b.median()
	if ma == 0 {
		if mb == 0 {
			return "unchanged", 0, 0
		}
		return "unresolved", 0, 0
	}
	worse := (mb - ma) / ma // > 0 means b is worse, for a lower-is-better metric
	if m.Better == "higher" {
		worse = -worse
	}
	spread := a.iqr() / ma
	if sb := b.iqr() / ma; sb > spread {
		spread = sb
	}
	if spread > m.Bound {
		if allBetter(m, a, b) {
			return "improved", worse, spread
		}
		return "unresolved", worse, spread
	}
	switch {
	case worse > m.Bound:
		return "regressed", worse, spread
	case -worse > spread && winsNineTenths(m, a, b):
		return "improved", worse, spread
	}
	return "unchanged", worse, spread
}

// winsNineTenths reports whether b beats a in at least nine tenths of the
// pairs (a[i], b[i]), ties counting for neither; it needs ten pairs.
func winsNineTenths(m benchMetric, a, b sample) bool {
	if len(a.values) != len(b.values) || len(a.values) < 10 {
		return false
	}
	wins, losses := 0, 0
	for i, x := range a.values {
		y := b.values[i]
		switch {
		case y == x:
		case (y > x) == (m.Better == "higher"):
			wins++
		default:
			losses++
		}
	}
	return wins+losses > 0 && float64(wins) >= 0.9*float64(wins+losses)
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(m benchMetric, a, b sample) bool {
	for _, x := range a.values {
		for _, y := range b.values {
			if (m.Better == "higher" && y <= x) || (m.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and end-to-end metric, how the runs in
// file b compare with the runs in file a under the bounds in BENCHMARK.json,
// and reports whether anything regressed. It also flags inputs that differ:
// the two sides must have run the same op lists.
func compareFiles(w io.Writer, benchFile, pathA, pathB string) (regressed bool, err error) {
	bf, err := readBenchmarkFile(benchFile)
	if err != nil {
		return false, err
	}
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n)\tB median (n)\tB worse by\tspread\tbound\tverdict")
	for _, name := range sortedKeys(a) {
		if len(b[name]) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, sb := collect(a[name], m.Name), collect(b[name], m.Name)
			v, worse, spread := verdict(m, sa, sb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.2f%%\t%.2f%%\t%.1f%%\t%s\n",
				name, m.Name, m.Unit, sa.median(), len(sa.values), sb.median(), len(sb.values), 100*worse, 100*spread, 100*m.Bound, v)
		}
		if da, db := digests(a[name]), digests(b[name]); da != db {
			fmt.Fprintf(tw, "%s\top_digest\t\t\t\t\t\t\tdiffers: the sides did not run the same (seed, op list) sets\n", name)
		}
		if fa, fb := failures(a[name]), failures(b[name]); fa+fb > 0 {
			v := "unchanged"
			if fb > fa {
				v, regressed = "regressed", true
			}
			fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d\t%d\t\t\t0\t%s\n", name, fa, fb, v)
		}
	}
	return regressed, tw.Flush()
}

func collect(reps []report, metric string) sample {
	var s sample
	for _, r := range reps {
		if m, ok := r.Result.Metrics[metric]; ok {
			s.values = append(s.values, m.Value)
		}
	}
	return s
}

// digests renders the sorted set of (seed, op digest) pairs a side ran.
func digests(reps []report) string {
	set := map[string]bool{}
	for _, r := range reps {
		set[fmt.Sprintf("%d:%s", r.Seed, r.OpDigest)] = true
	}
	return fmt.Sprint(sortedKeys(set))
}

func failures(reps []report) int {
	n := 0
	for _, r := range reps {
		n += r.Result.Failed
	}
	return n
}
