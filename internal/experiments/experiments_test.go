package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"smokescreen/internal/estimate"
)

// quickDigests pins the rendered bytes of every deterministic quick report
// (timing holds wall-clock, so it is absent). They were captured on commit
// 709ae1d, before the harness moved onto core.System; ladder and bandwidth
// were re-pinned in that move (their correction set became the one the
// system builds). A digest changes only with the reason CHANGES.md gives.
var quickDigests = map[string]string{
	"calibration":   "1dd535dad5c72917ec8fb788436551aede06d78dc5e8b587a410b3d0cc0b0b68",
	"figure3":       "571241e4c3f4c8ddbe5f85537c2be2922255e1c2bf78b10dd44602002970b46d",
	"figure4":       "b0d431e8386c73cfefc687a18108cbaf9b3ebaf9f4ee6dfe7095193d3e1d8354",
	"figure5":       "0801a10bf4f176616b354d2ccaea7343a3c5d850a0b1def6f6c835dee6df000c",
	"figure6":       "99e9e1dcaf02793eacbff15256f246abe2422c37849a4ac2c907f33788d1bf99",
	"figure7":       "ab183651195584a4db0fd4f7f8013a21cf3cbc06ec3b0d62864582daa900e0fb",
	"figure8":       "9486abfa1ff57fa549548e27ebf34f154856d240a200ff2504dd188e664d111a",
	"figure9":       "98e5bfe3b4505b41377f2420db307cde189af8b28d73760804303317ddb72ff2",
	"figure10":      "0d4e98cbe0d11435b67c89797fea0232f74f6129493121b04ae7c21687939b27",
	"ladder":        "95520d5df08972f1e08cbd4a1355e25b4a9cee5c4b5cfda042f3376c678109b4",
	"adversarial":   "5852811665a3c301cf2deac603e1b6fbee1c059e1097908d9aefac66ab3d5798",
	"claims":        "7654507de86a5d07d65ed1784d69fcf81343a9301557435db304750647f1ad08",
	"ablations":     "7876639d91bf608ba341e8fe76c5422ee3d3298c0025abc666caa32ef29c8183",
	"modelaccuracy": "f8ef8510a76f7a4e6e314c26b55d06fda83fb9c4dcd1516e128b1b1a640e1573",
	"bandwidth":     "3ce97ba0b983a25f83015f82fbba8b13624a420b2ba0b183f0d702932b9eb85b",
}

func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	report, err := Run(id, QuickConfig())
	if err != nil {
		t.Fatalf("Run(%q): %v", id, err)
	}
	if report.ID != id {
		t.Fatalf("report ID %q", report.ID)
	}
	if len(report.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	var buf bytes.Buffer
	if err := report.Render(&buf); err != nil {
		t.Fatalf("rendering %s: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s rendered empty", id)
	}
	if want, pinned := quickDigests[id]; pinned {
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: quick report digest %s, pinned %s; rendered:\n%s", id, got, want, buf.String())
		}
	}
	return report
}

func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", cell, err)
	}
	return v
}

func TestIDsRegistered(t *testing.T) {
	want := []string{
		"calibration", "figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10",
		"ladder", "adversarial", "timing", "claims", "ablations", "modelaccuracy", "bandwidth",
	}
	if ids := IDs(); !slices.Equal(ids, want) {
		t.Fatalf("IDs() = %v, want %v in presentation order", ids, want)
	}
	for _, id := range want {
		if _, pinned := quickDigests[id]; !pinned && id != "timing" {
			t.Errorf("experiment %q has no pinned quick digest", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("figure99", QuickConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := Run("figure3", Config{}); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestFigure3Shapes(t *testing.T) {
	report := runQuick(t, "figure3")
	if len(report.Tables) != 2 {
		t.Fatalf("%d tables", len(report.Tables))
	}
	for _, table := range report.Tables {
		first := cellFloat(t, table.Rows[0][2])
		last := cellFloat(t, table.Rows[len(table.Rows)-1][2])
		if first != 0 {
			t.Fatalf("%s: error at native resolution = %v, want 0", table.Title, first)
		}
		if last <= first {
			t.Fatalf("%s: error did not grow with degradation (%v -> %v)", table.Title, first, last)
		}
	}
}

func TestFigure4BoundsDominateAndOrder(t *testing.T) {
	report := runQuick(t, "figure4")
	for _, note := range report.Notes {
		if strings.Contains(note, "WARNING") {
			t.Fatalf("figure4 warning: %s", note)
		}
	}
	for _, table := range report.Tables {
		for _, row := range table.Rows {
			trueErr := cellFloat(t, row[1])
			ours := cellFloat(t, row[2])
			if ours < trueErr {
				t.Fatalf("%s: bound %v below true error %v", table.Title, ours, trueErr)
			}
		}
		// Our bound is tighter than the safe baselines at the smallest
		// fraction (where the paper's gap is widest).
		row := table.Rows[0]
		ours := cellFloat(t, row[2])
		for i, h := range table.Header {
			if !strings.HasPrefix(h, "bound (") {
				continue
			}
			if strings.Contains(h, "EBGS") || strings.Contains(h, "Hoeffding") || strings.Contains(h, "Stein") {
				if b := cellFloat(t, row[i]); b < ours {
					t.Fatalf("%s: %s bound %v tighter than ours %v at smallest fraction", table.Title, h, b, ours)
				}
			}
		}
	}
}

func TestFigure5FailureRates(t *testing.T) {
	report := runQuick(t, "figure5")
	if len(report.Tables) != 3 {
		t.Fatalf("%d tables", len(report.Tables))
	}
	// At least one workload must show CLT exceeding the nominal rate; the
	// COUNT workload is the canonical case.
	exceeded := false
	for _, table := range report.Tables {
		for _, row := range table.Rows {
			if cellFloat(t, row[1]) > 5 {
				exceeded = true
			}
		}
	}
	if !exceeded {
		t.Fatal("CLT never exceeded its nominal failure rate")
	}
}

func TestFigure6RepairIsSafe(t *testing.T) {
	report := runQuick(t, "figure6")
	unsafeSeen := false
	for _, table := range report.Tables {
		for _, row := range table.Rows {
			trueErr := cellFloat(t, row[1])
			corrected := cellFloat(t, row[3])
			if corrected < trueErr*0.999 {
				t.Fatalf("%s / %s: corrected bound %v below true error %v", table.Title, row[0], corrected, trueErr)
			}
			if strings.Contains(row[4], "YES") {
				unsafeSeen = true
				uncorrected := cellFloat(t, row[2])
				if uncorrected >= trueErr {
					t.Fatalf("%s / %s: row marked unsafe but bound %v >= true %v", table.Title, row[0], uncorrected, trueErr)
				}
			}
		}
	}
	if !unsafeSeen {
		t.Fatal("no red-circle (unsafe uncorrected bound) cases reproduced")
	}
}

func TestFigure7Anomaly(t *testing.T) {
	report := runQuick(t, "figure7")
	for _, note := range report.Notes {
		if strings.Contains(note, "WARNING") {
			t.Fatalf("figure7: %s", note)
		}
	}
}

func TestFigure8Distribution(t *testing.T) {
	report := runQuick(t, "figure8")
	table := report.Tables[0]
	var total608, total384 int
	var mean608, mean384 float64
	for _, row := range table.Rows {
		c := cellFloat(t, row[0])
		n608 := cellFloat(t, row[1])
		n384 := cellFloat(t, row[2])
		total608 += int(n608)
		total384 += int(n384)
		mean608 += c * n608
		mean384 += c * n384
	}
	if total608 == 0 || total608 != total384 {
		t.Fatalf("histogram totals %d vs %d", total608, total384)
	}
	if mean384/float64(total384) <= mean608/float64(total608) {
		t.Fatal("384x384 distribution not shifted right of the truth")
	}
}

func TestFigure9CurvesDecrease(t *testing.T) {
	report := runQuick(t, "figure9")
	table := report.Tables[0]
	first := cellFloat(t, table.Rows[0][1])
	last := cellFloat(t, table.Rows[len(table.Rows)-1][1])
	if last >= first {
		t.Fatalf("err_b(v) did not decrease with correction size: %v -> %v", first, last)
	}
}

// TestLadderAndAdversarialBoundsHold runs the two extension experiments the
// root package's per-figure benchmarks used to be the only `go test` path
// to: every rung of the default ladder and every structured perturbation
// must keep its repaired bound above the true error.
func TestLadderAndAdversarialBoundsHold(t *testing.T) {
	ladder := runQuick(t, "ladder")
	if rows := ladder.Tables[0].Rows; len(rows) < 3 {
		t.Fatalf("ladder profiled %d rungs", len(rows))
	}
	for _, row := range ladder.Tables[0].Rows {
		if bound, trueErr := cellFloat(t, row[2]), cellFloat(t, row[3]); bound < trueErr {
			t.Fatalf("ladder rung %s: bound %v below true error %v", row[0], bound, trueErr)
		}
	}
	for _, row := range runQuick(t, "adversarial").Tables[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("repaired bound violated under %s: %v", row[0], row)
		}
	}
}

func TestFigure10Similarity(t *testing.T) {
	report := runQuick(t, "figure10")
	left := report.Tables[0]
	// B must track the target better than limited-A on the whole sweep
	// (sum of differences).
	var limitedSum, bSum float64
	for _, row := range left.Rows {
		limitedSum += cellFloat(t, row[2])
		bSum += cellFloat(t, row[3])
	}
	if bSum >= limitedSum {
		t.Fatalf("similar video (%v) did not beat limited access (%v)", bSum, limitedSum)
	}
}

func TestTimingDominatedByModel(t *testing.T) {
	report := runQuick(t, "timing")
	for _, note := range report.Notes {
		if strings.Contains(note, "WARNING") {
			t.Fatalf("timing: %s", note)
		}
	}
}

func TestClaimsPositive(t *testing.T) {
	report := runQuick(t, "claims")
	if len(report.Tables) != 2 {
		t.Fatalf("%d tables", len(report.Tables))
	}
	// Tightness gains must be positive everywhere.
	for _, row := range report.Tables[0].Rows {
		if cellFloat(t, row[1]) <= 0 {
			t.Fatalf("no tightness gain for %s", row[0])
		}
	}
}

func TestCalibrationClose(t *testing.T) {
	report := runQuick(t, "calibration")
	table := report.Tables[0]
	for _, row := range table.Rows {
		person := cellFloat(t, row[3])
		paperPerson := cellFloat(t, row[4])
		if absFloat(person-paperPerson) > 8 {
			t.Fatalf("%s: person fraction %v%% far from paper %v%%", row[0], person, paperPerson)
		}
		face := cellFloat(t, row[5])
		paperFace := cellFloat(t, row[6])
		if absFloat(face-paperFace) > 3 {
			t.Fatalf("%s: face fraction %v%% far from paper %v%%", row[0], face, paperFace)
		}
	}
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestAblations(t *testing.T) {
	report := runQuick(t, "ablations")
	if len(report.Tables) != 5 {
		t.Fatalf("%d ablation tables", len(report.Tables))
	}
	// Ablation 5: the full-access sketch is more rank-accurate than
	// sampling, which in turn touches far fewer frames.
	sketchRows := report.Tables[4].Rows
	if cellFloat(t, sketchRows[1][2]) > cellFloat(t, sketchRows[0][2]) {
		t.Fatal("full-access sketch less accurate than sampling")
	}
	// Ablation 1: ours strictly tighter than EBGS at every n.
	for _, row := range report.Tables[0].Rows {
		ebgs := cellFloat(t, row[1])
		ours := cellFloat(t, row[3])
		if ours >= ebgs {
			t.Fatalf("ours %v not tighter than EBGS %v at n=%s", ours, ebgs, row[0])
		}
	}
	// Ablation 2: reuse saves invocations.
	rows := report.Tables[1].Rows
	naive := cellFloat(t, rows[0][1])
	reused := cellFloat(t, rows[1][1])
	if reused >= naive {
		t.Fatalf("reuse (%v) did not save invocations vs naive (%v)", reused, naive)
	}
	// Ablation 4: noise raises the true error, corrected bound stays safe.
	noiseRows := report.Tables[3].Rows
	first := cellFloat(t, noiseRows[0][1])
	last := cellFloat(t, noiseRows[len(noiseRows)-1][1])
	if last <= first {
		t.Fatalf("added noise did not raise the true error: %v -> %v", first, last)
	}
	for _, row := range noiseRows {
		if cellFloat(t, row[3]) < cellFloat(t, row[1])*0.999 {
			t.Fatalf("corrected bound below true error at sigma %s", row[0])
		}
	}
}

func TestModelAccuracyDegrades(t *testing.T) {
	report := runQuick(t, "modelaccuracy")
	for _, table := range report.Tables {
		first := cellFloat(t, table.Rows[0][3])
		last := cellFloat(t, table.Rows[len(table.Rows)-1][3])
		if first < 0.5 {
			t.Fatalf("%s: native F1 %v too low", table.Title, first)
		}
		if last >= first {
			t.Fatalf("%s: F1 did not degrade (%v -> %v)", table.Title, first, last)
		}
	}
}

func TestBandwidthMonotone(t *testing.T) {
	report := runQuick(t, "bandwidth")
	table := report.Tables[0]
	prev := -1.0
	for _, row := range table.Rows {
		bytes := cellFloat(t, row[2])
		if prev > 0 && bytes >= prev {
			t.Fatalf("bytes did not shrink down the degradation ladder: %v -> %v", prev, bytes)
		}
		prev = bytes
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{
		Title:  "t",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
	}
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "333333") {
		t.Fatalf("render output:\n%s", out)
	}
}

// RenderCSV is what `smokebench -format csv` writes: the report's id line
// and notes as # comments, then each table as a # title, a header and
// RFC 4180 rows, blocks separated by blank lines.
func TestReportRenderCSV(t *testing.T) {
	report := &Report{
		ID:    "figureX",
		Title: "A title",
		Notes: []string{"first note", "second, with a comma"},
		Tables: []*Table{
			{Title: "panel 1", Header: []string{"fraction", "bound"}, Rows: [][]string{{"0.1", "0.25"}}},
			{Title: "panel 2", Header: []string{"label", "value"}, Rows: [][]string{
				{"a,b", "1"},
				{`say "hi"`, "2"},
			}},
		},
	}
	var buf bytes.Buffer
	if err := report.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# figureX — A title\n" +
		"# first note\n" +
		"# second, with a comma\n" +
		"\n" +
		"# panel 1\n" +
		"fraction,bound\n" +
		"0.1,0.25\n" +
		"\n" +
		"# panel 2\n" +
		"label,value\n" +
		"\"a,b\",1\n" +
		"\"say \"\"hi\"\"\",2\n"
	if got := buf.String(); got != want {
		t.Fatalf("RenderCSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestWorkloadSpec(t *testing.T) {
	w := Workload{Dataset: "small", Model: "yolov4", Agg: estimate.COUNT}
	spec, err := w.Spec()
	if err != nil {
		t.Fatal(err)
	}
	pop := spec.TruePopulation()
	for _, v := range pop {
		if v != 0 && v != 1 {
			t.Fatal("COUNT workload population not indicators")
		}
	}
	if _, err := (Workload{Dataset: "nope", Model: "yolov4"}).Spec(); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := (Workload{Dataset: "small", Model: "nope"}).Spec(); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSweepFractions(t *testing.T) {
	fs := sweepFractions(0.1, 4)
	want := []float64{0.025, 0.05, 0.075, 0.1}
	for i := range want {
		if diff := fs[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("sweepFractions = %v", fs)
		}
	}
}
