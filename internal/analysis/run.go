package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// RunSuite applies each analyzer whose Match accepts the package's import
// path to every package of pkgs, a subset of all (every package the run
// loaded, which each Pass carries as All), and returns the surviving
// diagnostics in position order. Suppressed findings are dropped;
// malformed suppressions and type-check failures are themselves reported,
// so neither can silently weaken the gate. With audit
// set, a suppression that silenced nothing is reported as stale; that is
// only meaningful when every analyzer runs, since a suppression for an
// analyzer left out would always look stale. Every analyzer but reach is
// per-package, and no pass learns anything from another: reach reads the
// loaded packages themselves, not what their passes found.
func RunSuite(pkgs, all []*Package, analyzers []*Analyzer, audit bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
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
			ds, err := runOne(pkg, all, a)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
			}
			diags = append(diags, ds...)
		}
		if audit {
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
	return diags, nil
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

// runOne applies one analyzer to one package, filtering suppressions.
func runOne(pkg *Package, all []*Package, a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Pkg,
		Info:     pkg.Info,
		All:      all,
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
	if err := a.Run(pass); err != nil {
		return nil, err
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
