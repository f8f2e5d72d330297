// Command smokevet runs the repo's custom invariant analyzers
// (internal/analysis) over a set of packages and reports findings in the
// familiar file:line:col form. It is the `make lint` gate that turns the
// codebase's load-bearing conventions — deterministic generation paths,
// end-to-end context flow, atomic-only counters, goroutine accounting,
// axis-registry exhaustiveness, error contracts, and no export that only
// tests use — into mechanically enforced rules (DESIGN.md §10). The whole
// module is loaded whatever the patterns, so reach sees every use; the
// patterns choose which packages are reported on.
//
// Usage:
//
//	go run ./cmd/smokevet ./...            # whole repo (what make lint runs)
//	go run ./cmd/smokevet ./internal/raster/   # one package
//	go run ./cmd/smokevet -a determinism ./internal/profile/
//	go run ./cmd/smokevet -list
//
// smokevet is a standalone loader rather than a `go vet -vettool`
// plugin: the vettool protocol requires golang.org/x/tools/go/analysis,
// which hermetic builders cannot fetch, so the suite loads and
// type-checks packages itself with the standard library. Findings are
// suppressed line-by-line with `//smokevet:ignore <reason>` (optionally
// `//smokevet:ignore <analyzer>: <reason>`); a suppression without a
// reason, or scoped to a name the suite does not have, is itself a
// finding, and when the whole suite runs (no -a) a suppression that
// silences nothing is reported as stale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"smokescreen/internal/analysis"
)

func main() {
	var (
		list = flag.Bool("list", false, "list analyzers and exit")
		only = flag.String("a", "", "comma-separated analyzer names to run (default all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: smokevet [-list] [-a name,name] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := analysis.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers := all
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "smokevet: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, module, err := analysis.NewLoader().Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokevet:", err)
		os.Exit(2)
	}
	// With a filtered roster every suppression for an excluded analyzer
	// would look stale, so the audit runs only on the whole suite.
	diags, err := analysis.RunSuite(pkgs, module, analyzers, *only == "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokevet:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "smokevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
