package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// RunOptions tunes a suite run.
type RunOptions struct {
	// AuditSuppressions reports //smokevet:ignore comments that silenced
	// nothing during the run (stale ignores) as findings. Only meaningful
	// when every analyzer runs: a suppression for an analyzer that was
	// filtered out with -a would always look stale.
	AuditSuppressions bool
}

// AnalyzerTiming is the cumulative wall time one analyzer spent across
// every package of a run (smokevet -v prints these).
type AnalyzerTiming struct {
	Name     string
	Duration time.Duration
}

// RunResult carries a suite run's diagnostics plus per-analyzer timing.
type RunResult struct {
	Diagnostics []Diagnostic
	Timings     []AnalyzerTiming
}

// RunSuite applies each analyzer whose Match accepts the package's import
// path and returns the surviving diagnostics in position order, with
// per-analyzer timing. Suppressed findings are dropped; malformed
// suppressions and type-check failures are themselves reported, so neither
// can silently weaken the gate. Packages are visited in dependency order
// (imports before importers, restricted to the loaded set), so facts an
// analyzer exports while visiting a package are always available by the
// time any importer of that package is analyzed.
func RunSuite(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) (*RunResult, error) {
	facts := newFactStore()
	if err := facts.register(analyzers); err != nil {
		return nil, err
	}
	ordered := dependencyOrder(pkgs)

	var diags []Diagnostic
	timings := map[string]time.Duration{}
	for _, pkg := range ordered {
		for _, err := range pkg.TypeErrors {
			diags = append(diags, Diagnostic{
				Analyzer: "typecheck",
				Pos:      typeErrorPos(err),
				Message:  err.Error(),
			})
		}
		for _, m := range pkg.Suppressions.malformed {
			diags = append(diags, Diagnostic{
				Analyzer: "smokevet",
				Pos:      pkg.Fset.Position(m.pos),
				Message:  m.message,
			})
		}
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			start := time.Now()
			ds, err := runOne(pkg, a, facts)
			timings[a.Name] += time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
			diags = append(diags, ds...)
		}
		if opts.AuditSuppressions {
			for _, s := range pkg.Suppressions.stale() {
				diags = append(diags, Diagnostic{
					Analyzer: "smokevet",
					Pos:      pkg.Fset.Position(s.pos),
					Message: fmt.Sprintf("stale smokevet:ignore (%s): it suppresses no diagnostic on this or the next line — delete it",
						s.describe()),
				})
			}
		}
	}
	sortDiagnostics(diags)

	res := &RunResult{Diagnostics: diags}
	for _, a := range analyzers {
		res.Timings = append(res.Timings, AnalyzerTiming{Name: a.Name, Duration: timings[a.Name]})
	}
	return res, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// dependencyOrder topologically sorts the packages so every package
// follows all of its (loaded) imports; ties resolve by import path, so
// the order — and therefore fact flow and report grouping — is stable
// run to run. Cycles cannot occur in valid Go imports; if the metadata
// claims one anyway, the remaining packages are appended in path order
// rather than dropped.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	indegree := map[string]int{}
	dependents := map[string][]string{}
	for _, p := range pkgs {
		indegree[p.Path] += 0
		for _, imp := range p.Imports {
			if _, ok := byPath[imp]; !ok {
				continue
			}
			indegree[p.Path]++
			dependents[imp] = append(dependents[imp], p.Path)
		}
	}
	var ready []string
	for path, n := range indegree {
		if n == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	ordered := make([]*Package, 0, len(pkgs))
	emitted := map[string]bool{}
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		ordered = append(ordered, byPath[path])
		emitted[path] = true
		var unlocked []string
		for _, dep := range dependents[path] {
			indegree[dep]--
			if indegree[dep] == 0 {
				unlocked = append(unlocked, dep)
			}
		}
		sort.Strings(unlocked)
		ready = mergeSorted(ready, unlocked)
	}
	if len(ordered) < len(pkgs) { // import-cycle fallback
		var rest []*Package
		for _, p := range pkgs {
			if !emitted[p.Path] {
				rest = append(rest, p)
			}
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].Path < rest[j].Path })
		ordered = append(ordered, rest...)
	}
	return ordered
}

// mergeSorted merges two sorted string slices.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// runOne applies one analyzer to one package, filtering suppressions and
// wiring the fact API. A nil facts store (unit tests poking a single
// analyzer) degrades to no-op facts.
func runOne(pkg *Package, a *Analyzer, facts *factStore) ([]Diagnostic, error) {
	var diags []Diagnostic
	exported := newFactSet()
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Pkg,
		Info:     pkg.Info,
	}
	pass.Report = func(pos token.Pos, format string, args ...any) {
		p := pkg.Fset.Position(pos)
		if pkg.Suppressions.suppressed(a.Name, p.Line) {
			return
		}
		diags = append(diags, Diagnostic{
			Analyzer: a.Name,
			Pos:      p,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	pass.ExportObjectFact = func(obj types.Object, fact Fact) {
		exported.put(objectFactKey(obj), fact)
	}
	pass.ImportObjectFact = func(obj types.Object, fact Fact) bool {
		if facts == nil || obj == nil || obj.Pkg() == nil {
			return false
		}
		// Facts of the package under analysis are still live in the
		// pass's own export set (sealed only when the package finishes).
		if obj.Pkg() == pkg.Pkg {
			return exported.get(objectFactKey(obj), fact)
		}
		set, err := facts.open(obj.Pkg().Path(), a.Name)
		if err != nil || set == nil {
			return false
		}
		return set.get(objectFactKey(obj), fact)
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	if facts != nil {
		if err := facts.seal(pkg.Path, a.Name, exported); err != nil {
			return nil, err
		}
	}
	return diags, nil
}

// typeErrorPos extracts the position from a types.Error, falling back to
// a zero position for other error kinds.
func typeErrorPos(err error) token.Position {
	if te, ok := err.(types.Error); ok {
		return te.Fset.Position(te.Pos)
	}
	return token.Position{}
}
