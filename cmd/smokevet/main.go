// Command smokevet runs the repo's custom invariant analyzers
// (internal/analysis) over a set of packages and reports findings in the
// familiar file:line:col form. It is the `make lint` gate that turns the
// codebase's load-bearing conventions — deterministic generation paths,
// end-to-end context flow, atomic-only counters, goroutine accounting,
// axis-registry exhaustiveness, and error contracts — into mechanically
// enforced rules (DESIGN.md §10).
//
// Usage:
//
//	go run ./cmd/smokevet ./...            # whole repo (what make lint runs)
//	go run ./cmd/smokevet ./internal/raster/   # one package
//	go run ./cmd/smokevet -a determinism ./internal/profile/
//	go run ./cmd/smokevet -json ./...          # machine-readable findings
//	go run ./cmd/smokevet -list
//
// smokevet is a standalone loader rather than a `go vet -vettool`
// plugin: the vettool protocol requires golang.org/x/tools/go/analysis,
// which hermetic builders cannot fetch, so the suite loads and
// type-checks packages itself with the standard library. Findings are
// suppressed line-by-line with `//smokevet:ignore <reason>` (optionally
// `//smokevet:ignore <analyzer>: <reason>`); a suppression without a
// reason, or scoped to a name the suite does not have, is itself a
// finding, and a suppression that silences nothing is reported as stale
// unless the audit is disabled with -audit=false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"smokescreen/internal/analysis"
)

// jsonFinding is the -json wire form of one diagnostic.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	var (
		list    = flag.Bool("list", false, "list analyzers and exit")
		only    = flag.String("a", "", "comma-separated analyzer names to run (default all)")
		verbose = flag.Bool("v", false, "print per-analyzer timing to stderr")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		audit   = flag.Bool("audit", true, "report stale smokevet:ignore suppressions (forced off with -a)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: smokevet [-list] [-a name,name] [-v] [-json] [packages]\n")
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
		// With a filtered roster every suppression for an excluded
		// analyzer would look stale, so the audit only runs on full suites.
		*audit = false
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.NewLoader().Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokevet:", err)
		os.Exit(2)
	}
	res, err := analysis.RunSuite(pkgs, analyzers, analysis.RunOptions{AuditSuppressions: *audit})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokevet:", err)
		os.Exit(2)
	}
	diags := res.Diagnostics

	if *verbose {
		for _, t := range res.Timings {
			fmt.Fprintf(os.Stderr, "smokevet: %-14s %8.1fms\n", t.Name, float64(t.Duration.Microseconds())/1000)
		}
	}

	if *jsonOut {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "smokevet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "smokevet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
