package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

func parseForSuppress(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

func TestBareSuppressionIsMalformed(t *testing.T) {
	fset, f := parseForSuppress(t, `package p

func f() int {
	//smokevet:ignore
	return 1
}
`)
	idx := indexSuppressions(fset, []*ast.File{f})
	if len(idx.malformed) != 1 {
		t.Fatalf("malformed = %d, want 1", len(idx.malformed))
	}
	// A reason-less suppression must not silence anything: the "zero
	// unexplained suppressions" bar is mechanical only if bare ignores
	// are reports, not silencers.
	if idx.suppressed("determinism", 4) || idx.suppressed("determinism", 5) {
		t.Error("reason-less suppression silenced a finding")
	}
}

func TestSuppressionScopes(t *testing.T) {
	fset, f := parseForSuppress(t, `package p

func f() int {
	//smokevet:ignore determinism: scoped to one analyzer
	a := 1
	//smokevet:ignore applies to every analyzer
	b := 2
	return a + b
}
`)
	idx := indexSuppressions(fset, []*ast.File{f})
	if len(idx.malformed) != 0 {
		t.Fatalf("malformed = %d, want 0", len(idx.malformed))
	}
	// Scoped: silences its analyzer on the comment line and the line
	// below, nothing else.
	if !idx.suppressed("determinism", 4) || !idx.suppressed("determinism", 5) {
		t.Error("scoped suppression did not cover its own line and the line below")
	}
	if idx.suppressed("ctxflow", 5) {
		t.Error("determinism-scoped suppression silenced ctxflow")
	}
	if idx.suppressed("determinism", 8) {
		t.Error("suppression leaked beyond the line below the comment")
	}
	// Unscoped: silences every analyzer.
	if !idx.suppressed("determinism", 7) || !idx.suppressed("goroleak", 7) {
		t.Error("unscoped suppression did not apply to every analyzer")
	}
}

// TestRetiredAnalyzerScopeIsReported pins what deriving the scope names
// from Analyzers() buys: an ignore comment naming an analyzer the suite no
// longer has (lockorder was retired) — or a typo of one that it has — is a
// finding and silences nothing. Parsed as a reason with a colon in it, the
// same comment would have been a blanket ignore for every analyzer.
func TestRetiredAnalyzerScopeIsReported(t *testing.T) {
	fset, f := parseForSuppress(t, `package p

//smokevet:ignore lockorder: the lock graph is acyclic here
var a = 1

//smokevet:ignore determinsm: typo of a live analyzer
var b = 2

//smokevet:ignore see issue 12: a colon later in a reason is just text
var c = 3
`)
	pkg := &Package{
		Path:         "fixture/retired",
		Fset:         fset,
		Files:        []*ast.File{f},
		Suppressions: indexSuppressions(fset, []*ast.File{f}),
	}
	everywhere := &Analyzer{
		Name: "determinism",
		Run: func(pass *Pass) error {
			for _, d := range f.Decls {
				pass.Report(d.Pos(), "synthetic finding")
			}
			return nil
		},
	}
	diags, err := RunSuite([]*Package{pkg}, []*Package{pkg}, []*Analyzer{everywhere}, false)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s %s", d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		`3 smokevet smokevet:ignore names "lockorder", which is not an analyzer of the suite; it silences nothing`,
		"4 determinism synthetic finding",
		`6 smokevet smokevet:ignore names "determinsm", which is not an analyzer of the suite; it silences nothing`,
		"7 determinism synthetic finding",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStaleSuppressionAudit pins the stale-ignore audit: a suppression
// that silences a real finding stays quiet, while one that silences
// nothing is itself reported when the audit is on — so ignores
// cannot outlive the findings they were written for.
func TestStaleSuppressionAudit(t *testing.T) {
	fset, f := parseForSuppress(t, `package p

//smokevet:ignore determinism: silences the finding below
var a = 1

//smokevet:ignore determinism: silences nothing at all
var b = 2
`)
	pkg := &Package{
		Path:         "fixture/staleaudit",
		Fset:         fset,
		Files:        []*ast.File{f},
		Suppressions: indexSuppressions(fset, []*ast.File{f}),
	}
	// A fake determinism analyzer reporting exactly one finding at the
	// first var decl (line 4, under the first suppression).
	fake := &Analyzer{
		Name: "determinism",
		Run: func(pass *Pass) error {
			pass.Report(f.Decls[0].Pos(), "synthetic finding")
			return nil
		},
	}
	diags, err := RunSuite([]*Package{pkg}, []*Package{pkg}, []*Analyzer{fake}, true)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("diags = %v, want exactly the stale-ignore report", diags)
	}
	d := diags[0]
	if d.Analyzer != "smokevet" || !strings.Contains(d.Message, "stale smokevet:ignore") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if !strings.Contains(d.Message, "silences nothing at all") {
		t.Errorf("stale report does not name the unused suppression: %s", d)
	}
	if d.Pos.Line != 6 {
		t.Errorf("stale report at line %d, want 6", d.Pos.Line)
	}

	// The audit is opt-in: the same run without it reports nothing.
	diags, err = RunSuite([]*Package{pkg}, []*Package{pkg}, []*Analyzer{fake}, false)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("audit off: diags = %v, want none", diags)
	}
}

// TestRunReportsMalformedSuppression pins that the runner surfaces bare
// ignores as findings, so `make lint` fails on an unexplained suppression.
func TestRunReportsMalformedSuppression(t *testing.T) {
	fset, f := parseForSuppress(t, `package p

var x = 1 //smokevet:ignore
`)
	pkg := &Package{
		Path:         "fixture/malformed",
		Fset:         fset,
		Files:        []*ast.File{f},
		Suppressions: indexSuppressions(fset, []*ast.File{f}),
	}
	diags, err := RunSuite([]*Package{pkg}, []*Package{pkg}, nil, false)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("diags = %d, want 1", len(diags))
	}
	if diags[0].Analyzer != "smokevet" || !strings.Contains(diags[0].Message, "without a reason") {
		t.Errorf("unexpected diagnostic: %s", diags[0])
	}
	if diags[0].Pos.Line != 3 {
		t.Errorf("diagnostic at line %d, want 3", diags[0].Pos.Line)
	}
}
