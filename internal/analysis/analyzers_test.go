package analysis

import (
	"path/filepath"
	"testing"
)

// One loader shared across the fixture tests: the source importer caches
// type-checked dependencies, so the stdlib is checked once, not per test.
var fixtureLoader = NewLoader()

func runFixtureTest(t *testing.T, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", a.Name)
	res, err := RunFixture(fixtureLoader, a, dir)
	if err != nil {
		t.Fatalf("RunFixture(%s): %v", a.Name, err)
	}
	if res.Failed() {
		t.Fatalf("fixture mismatches for %s:\n%s", a.Name, res)
	}
}

func TestDeterminismFixture(t *testing.T)   { runFixtureTest(t, Determinism) }
func TestCtxflowFixture(t *testing.T)       { runFixtureTest(t, Ctxflow) }
func TestAtomiccounterFixture(t *testing.T) { runFixtureTest(t, Atomiccounter) }
func TestGoroleakFixture(t *testing.T)      { runFixtureTest(t, Goroleak) }
func TestAxisregFixture(t *testing.T)       { runFixtureTest(t, Axisreg) }
func TestErrcontractFixture(t *testing.T)   { runFixtureTest(t, Errcontract) }
func TestReachFixture(t *testing.T)         { runFixtureTest(t, Reach) }

// TestFixturesDetectDisabledCheck pins the property the acceptance bar
// depends on: a neutered analyzer (Run reports nothing) must FAIL its
// fixture — the want comments go unmatched. Without this, a regression
// that silently disables a check would sail through the fixture tests.
func TestFixturesDetectDisabledCheck(t *testing.T) {
	for _, a := range Analyzers() {
		neutered := &Analyzer{Name: a.Name, Doc: a.Doc, Run: func(*Pass) error { return nil }}
		res, err := RunFixture(fixtureLoader, neutered, filepath.Join("testdata", "src", a.Name))
		if err != nil {
			t.Fatalf("RunFixture(neutered %s): %v", a.Name, err)
		}
		if !res.Failed() {
			t.Errorf("%s fixture passes with the check disabled; fixtures must pin behaviour", a.Name)
		}
	}
}

// TestAnalyzersRegistered pins the suite roster: dropping an analyzer from
// the registry would silently stop enforcing its invariant repo-wide. The
// suppression grammar reads the same roster, so each name must scope.
func TestAnalyzersRegistered(t *testing.T) {
	want := []string{"determinism", "ctxflow", "atomiccounter", "goroleak", "axisreg", "errcontract", "reach"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if s, _, _ := parseSuppression("smokevet:ignore " + a.Name + ": reason"); s.analyzer != a.Name {
			t.Errorf("a suppression scoped to %q parses with scope %q", a.Name, s.analyzer)
		}
	}
}
