// Command smokebench regenerates the paper's evaluation artifacts: one
// text report per figure/claim of Section 5, written to stdout or to a
// directory of per-experiment files.
//
// Usage:
//
//	smokebench [-quick] [-trials N] [-seed S] [-out DIR] [-format text|csv] [experiment...]
//
// With no experiment arguments every registered experiment runs in
// presentation order. Use -quick for a fast smoke run (fewer trials and
// sweep points); EXPERIMENTS.md is produced from a full run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smokescreen/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the experiments and
// returns the exit status, writing reports to stdout (or -out) and
// progress and errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smokebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick  = fs.Bool("quick", false, "reduced trials and sweep points")
		trials = fs.Int("trials", 0, "trials per measurement point (default: 100, or 8 with -quick)")
		seed   = fs.Uint64("seed", 20220612, "root randomness seed")
		outDir = fs.String("out", "", "write one report file per experiment into this directory")
		format = fs.String("format", "text", "output format: text or csv")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "smokebench:", err)
		return 1
	}

	if *format != "text" && *format != "csv" {
		return fail(fmt.Errorf("unknown format %q (text or csv)", *format))
	}
	render := func(report *experiments.Report, w io.Writer) error {
		if *format == "csv" {
			return report.RenderCSV(w)
		}
		return report.Render(w)
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed
	// An explicit -trials goes through as given, so a non-positive count
	// is refused by the experiments rather than replaced by the default.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "trials" {
			cfg.Trials = *trials
		}
	})

	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
	}

	for _, id := range ids {
		start := time.Now()
		fmt.Fprintf(stderr, "running %s...\n", id)
		report, err := experiments.Run(id, cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Fprintf(stderr, "  done in %s\n", time.Since(start).Round(time.Millisecond))
		if *outDir == "" {
			if err := render(report, stdout); err != nil {
				return fail(err)
			}
			continue
		}
		ext := ".txt"
		if *format == "csv" {
			ext = ".csv"
		}
		path := filepath.Join(*outDir, id+ext)
		f, err := os.Create(path)
		if err != nil {
			return fail(err)
		}
		if err := render(report, f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "  wrote %s\n", path)
	}
	return 0
}
