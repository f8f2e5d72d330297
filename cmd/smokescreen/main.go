// Command smokescreen is the interactive front door to the Smokescreen
// system: run analytical queries under destructive interventions, generate
// degradation-accuracy profiles, and choose tradeoffs.
//
// Usage:
//
//	smokescreen query   [-seed S] "SELECT AVG(count(car)) FROM night-street SAMPLE 0.1"
//	smokescreen profile [-seed S] [-max-err E] [-step F] [-max-fraction F] "SELECT ..."
//	smokescreen curve   [-seed S] [-step F] [-max-fraction F] [-early-stop D] [-remote URL] "SELECT ... RESOLUTION 160 BLUR 5"
//	smokescreen ladder  [-seed S] [-name default] [-remote URL] "SELECT ..."
//	smokescreen datasets
//
// The query subcommand executes the query under its own interventions and
// prints the approximate answer with its error bound. The profile
// subcommand runs the full profile-generation stage, prints the three
// loosest hypercube slices (the administrator's starting view, Section
// 3.1) and, when -max-err is given, the chosen tradeoff. The curve and
// ladder subcommands are the daemon's POST /v1/profiles from a terminal:
// the query text (its RESOLUTION/REMOVE/NOISE/BLUR/QUANTIZE/OCCLUDE clauses
// fix a curve's non-sampling axes) becomes a server.GenRequest, which runs
// through server.SystemGenerator in process or, with -remote, through a
// running smokescreend — same artifact key, same bytes, same output.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smokescreen"
	"smokescreen/internal/core"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/profile"
	"smokescreen/internal/server"
	"smokescreen/internal/stats"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "query":
		cmdQuery(os.Args[2:])
	case "profile":
		cmdProfile(os.Args[2:])
	case "curve":
		cmdCurve(os.Args[2:])
	case "ladder":
		cmdLadder(os.Args[2:])
	case "choose":
		cmdChoose(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "accuracy":
		cmdAccuracy(os.Args[2:])
	case "stream":
		cmdStream(os.Args[2:])
	case "datasets":
		cmdDatasets()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "smokescreen: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  smokescreen query    "SELECT AVG(count(car)) FROM night-street SAMPLE 0.1"
  smokescreen profile  -max-err 0.1 "SELECT AVG(count(car)) FROM ua-detrac"
  smokescreen curve    "SELECT AVG(count(car)) FROM small RESOLUTION 160 BLUR 5"
  smokescreen curve    -remote http://127.0.0.1:8040 "SELECT AVG(count(car)) FROM small"
  smokescreen ladder   [-name default] [-remote URL] "SELECT AVG(count(car)) FROM small"
  smokescreen choose   -load cube.json -max-err 0.1
  smokescreen explain  "SELECT AVG(count(car)) FROM small RESOLUTION 160"
  smokescreen accuracy -dataset small -model yolov4 -class car
  smokescreen stream   "SELECT AVG(count(car)) FROM small SAMPLE 0.05 RESOLUTION 160 REMOVE face"
  smokescreen stream   -window 300 -stride 150 -loops 3 [-remote URL] "SELECT AVG(count(car)) FROM small SAMPLE 0.2"
  smokescreen datasets
`)
	os.Exit(2)
}

// interruptCtx returns a context canceled on SIGINT/SIGTERM: ^C during a
// long generation stops detector work mid-plan through the pipeline's
// cancellation path instead of killing the process between frames.
func interruptCtx() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

func parseQueryArg(fs *flag.FlagSet, args []string) *smokescreen.Query {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "smokescreen: exactly one query string expected")
		os.Exit(2)
	}
	q, err := smokescreen.ParseQuery(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	return q
}

func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	seed := fs.Uint64("seed", core.DefaultSeed, "randomness seed")
	truth := fs.Bool("truth", false, "also audit the answer against the exact one (touches the whole corpus!)")
	until := fs.Float64("until", 0, "adaptive mode: sample until the error bound reaches this target")
	budget := fs.Float64("budget", 0.5, "adaptive mode: largest corpus fraction that may be touched")
	q := parseQueryArg(fs, args)

	ctx, cancel := interruptCtx()
	defer cancel()
	sys := smokescreen.New(smokescreen.WithSeed(*seed))
	if *until > 0 {
		res, err := sys.ExecuteUntilCtx(ctx, q, *until, *budget)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("query:      %s (adaptive, target err <= %.4g)\n", q, *until)
		fmt.Printf("answer:     %.6g\n", res.Estimate.Value)
		fmt.Printf("error <=    %.4f (any-time bound)\n", res.Estimate.ErrBound)
		fmt.Printf("frames:     %d of %d (target met: %v)\n", res.FramesUsed, res.Estimate.N, res.Met)
		return
	}
	res, err := sys.ExecuteCtx(ctx, q)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query:      %s\n", q)
	fmt.Printf("setting:    %s\n", res.Setting)
	fmt.Printf("answer:     %.6g\n", res.Estimate.Value)
	fmt.Printf("error <=    %.4f (with %.0f%% confidence)\n", res.Estimate.ErrBound, (1-q.Delta)*100)
	fmt.Printf("frames:     %d of %d\n", res.Estimate.Sample, res.Estimate.N)
	if res.Repaired {
		fmt.Println("repair:     bound corrected with a correction set (non-random interventions)")
	}
	if *truth {
		audit, err := sys.Audit(q, res.Estimate)
		if err != nil {
			fatal(err)
		}
		verdict := "bound held"
		if !audit.Held {
			verdict = "BOUND VIOLATED"
		}
		fmt.Printf("exact:      %.6g (true error %.4f, %s)\n", audit.Truth, audit.TrueError, verdict)
	}
}

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	seed := fs.Uint64("seed", core.DefaultSeed, "randomness seed")
	maxErr := fs.Float64("max-err", 0, "public preference: maximum analytical error (0 = only print profiles)")
	step := fs.Float64("step", core.DefaultFractionStep, "sample-fraction candidate interval")
	maxFraction := fs.Float64("max-fraction", core.DefaultMaxFraction, "largest sample-fraction candidate")
	save := fs.String("save", "", "archive the generated hypercube as JSON at this path")
	earlyStop := fs.Float64("early-stop", 0, "stop each sweep when the bound improves by less than this (0 = off)")
	q := parseQueryArg(fs, args)

	ctx, cancel := interruptCtx()
	defer cancel()

	sys := smokescreen.New(
		smokescreen.WithSeed(*seed),
		smokescreen.WithFractionCandidates(*step, *maxFraction),
		smokescreen.WithEarlyStop(*earlyStop),
	)
	profiles, err := sys.GenerateProfilesCtx(ctx, q)
	if err != nil {
		fatal(err)
	}
	cube := profiles.Cube
	fmt.Printf("profile generation: %s, %d model invocations, correction set %.0f%% of corpus\n\n",
		profiles.Elapsed.Round(1e6), profiles.ModelInvocations, profiles.Correction.Fraction*100)

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := profile.SaveHypercube(f, cube); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("hypercube archived to %s\n\n", *save)
	}

	// The administrator's initial view: three slices with the unseen
	// dimensions fixed to their loosest values (Section 3.1).
	fmt.Println("slice 1: error bound vs sample fraction (resolution native, no removal)")
	printFractionSlice(cube, 0, 0)
	fmt.Println("\nslice 2: error bound vs resolution (loosest profiled fraction, no removal)")
	printResolutionSlice(cube, 0, len(cube.Fractions)-1)
	fmt.Println("\nslice 3: error bound vs restricted classes (resolution native, loosest fraction)")
	printComboSlice(cube, 0, len(cube.Fractions)-1)

	if *maxErr > 0 {
		setting, err := sys.ChooseTradeoff(profiles, smokescreen.Preferences{MaxError: *maxErr})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nchosen tradeoff for max error %.4g: %s\n", *maxErr, setting)
		res, err := sys.ExecuteSettingCtx(ctx, q, setting)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("answer under chosen setting: %.6g (error <= %.4f)\n", res.Estimate.Value, res.Estimate.ErrBound)
	}
}

func printFractionSlice(cube *smokescreen.Hypercube, ci, ri int) {
	bounds := cube.SliceByFraction(ci, ri)
	for fi, f := range cube.Fractions {
		fmt.Printf("  f=%-6.3g err<=%s\n", f, fmtBound(bounds[fi]))
	}
}

func printResolutionSlice(cube *smokescreen.Hypercube, ci, fi int) {
	bounds := cube.SliceByResolution(ci, fi)
	for ri, p := range cube.Resolutions {
		fmt.Printf("  p=%-9s err<=%s\n", fmt.Sprintf("%dx%d", p, p), fmtBound(bounds[ri]))
	}
}

func printComboSlice(cube *smokescreen.Hypercube, ri, fi int) {
	for ci, combo := range cube.Combos {
		label := "none"
		if len(combo) > 0 {
			names := make([]string, len(combo))
			for i, c := range combo {
				names[i] = c.String()
			}
			label = strings.Join(names, "+")
		}
		fmt.Printf("  c=%-12s err<=%s\n", label, fmtBound(cube.Bounds[ci][ri][fi]))
	}
}

func fmtBound(v float64) string {
	if math.IsNaN(v) {
		return "infeasible (sample exceeds admissible pool)"
	}
	return fmt.Sprintf("%.4f", v)
}

// cmdCurve prints one fraction-axis tradeoff curve: the candidate
// fractions swept under the query's own intervention clauses.
func cmdCurve(args []string) {
	fs := flag.NewFlagSet("curve", flag.ExitOnError)
	var req server.GenRequest
	fs.Float64Var(&req.Step, "step", core.DefaultFractionStep, "sample-fraction candidate interval")
	fs.Float64Var(&req.MaxFraction, "max-fraction", core.DefaultMaxFraction, "largest sample-fraction candidate")
	fs.Float64Var(&req.EarlyStop, "early-stop", 0, "stop the sweep when the bound improves by less than this (0 = off)")
	prof := generate(fs, args, &req)
	fmt.Printf("tradeoff curve for %s (video %s, model %s)\n", req.Query, prof.VideoName, prof.ModelName)
	for _, pt := range prof.Points {
		bar := strings.Repeat("#", int(math.Min(pt.Estimate.ErrBound, 1)*50))
		fmt.Printf("  f=%-6.3g err<=%-7.4f %s\n", pt.Setting.SampleFraction, pt.Estimate.ErrBound, bar)
	}
}

// cmdLadder prints the fidelity-ladder profile of a query: one tradeoff
// point per tier of the named ladder, loosest first, with every non-random
// tier's bound repaired through the correction set.
func cmdLadder(args []string) {
	fs := flag.NewFlagSet("ladder", flag.ExitOnError)
	var req server.GenRequest
	fs.StringVar(&req.Ladder, "name", "default", "ladder to evaluate")
	prof := generate(fs, args, &req)
	fmt.Printf("fidelity ladder %q for %s\n", req.Ladder, req.Query)
	for _, pt := range prof.Points {
		repaired := ""
		if pt.Repaired {
			repaired = " (repaired)"
		}
		fmt.Printf("  %-10s %-40s err<=%-7.4f%s\n", pt.Tier, pt.Setting, pt.Estimate.ErrBound, repaired)
	}
}

// generate is the one way curve and ladder obtain a profile. It registers
// the flags every generation request shares, parses the command line into
// req, and runs the request: in process through the daemon's own generator,
// or — with -remote — through a running smokescreend, which serves the
// artifact from its store and generates it once on a miss. Both print the
// artifact key first.
func generate(fs *flag.FlagSet, args []string, req *server.GenRequest) *profile.Profile {
	fs.Uint64Var(&req.Seed, "seed", core.DefaultSeed, "randomness seed")
	remote := fs.String("remote", "", "smokescreend base URL (e.g. http://127.0.0.1:8040): ask the profile service instead of generating locally")
	timeout := fs.Duration("timeout", 5*time.Minute, "remote mode: total request timeout")
	req.Query = parseQueryArg(fs, args).String()

	ctx, cancel := interruptCtx()
	defer cancel()
	var (
		payload []byte
		key     string
		err     error
	)
	if *remote != "" {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		fmt.Printf("profile service %s\n", *remote)
		client := &server.Client{BaseURL: strings.TrimRight(*remote, "/")}
		payload, key, err = client.GenerateRaw(ctx, *req)
	} else {
		gen := &server.SystemGenerator{}
		if key, _, err = gen.Key(*req); err == nil {
			payload, err = gen.Generate(ctx, *req)
		}
	}
	if err != nil {
		fatal(err)
	}
	prof, err := profile.LoadProfile(bytes.NewReader(payload))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("artifact key:   %s\n", key)
	return prof
}

// cmdExplain resolves a query without executing it: which corpus and
// model will run, how the interventions classify (random vs non-random),
// how many frames the plan touches, and whether profile repair applies.
func cmdExplain(args []string) {
	q := parseQueryArg(flag.NewFlagSet("explain", flag.ExitOnError), args)
	spec, err := smokescreen.New().Resolve(q)
	if err != nil {
		fatal(err)
	}
	n := spec.Video.NumFrames()
	fmt.Printf("query:        %s\n", q)
	fmt.Printf("dataset:      %s (%d frames, %dx%d native)\n",
		spec.Video.Config.Name, n, spec.Video.Config.Width, spec.Video.Config.Height)
	fmt.Printf("model:        %s (input <= %d, multiples of %d, threshold %.1f)\n",
		spec.Model.Name, spec.Model.NativeInput, spec.Model.InputMultiple, spec.Model.Threshold)
	fmt.Printf("aggregate:    %s over count(%s), delta=%.3g, r=%.3g\n", q.Agg, spec.Class, q.Delta, q.R)

	setting := q.Setting
	if err := setting.Validate(spec.Model); err != nil {
		fatal(err)
	}
	kind := "random only (sound bounds without a correction set)"
	if !setting.IsRandomOnly(spec.Model) {
		kind = "non-random (bounds will be repaired with a correction set)"
	}
	fmt.Printf("interventions: %s — %s\n", setting, kind)
	ctx, cancel := interruptCtx()
	defer cancel()
	// The plan the executor runs: degrade.ApplyCtx's sample size (with its
	// one-frame floor), admissible pool and resolution. The sampling seed
	// moves which frames, never how many.
	plan, err := degrade.ApplyCtx(ctx, spec.Video, spec.Model, setting, stats.NewStream(core.DefaultSeed))
	if ctx.Err() != nil {
		fatal(ctx.Err())
	}
	if err != nil {
		fmt.Printf("warning:       %v — execution will fail\n", err)
		return
	}
	fmt.Printf("plan:          sample %d of %d admissible frames (corpus %d) at %dx%d\n",
		len(plan.Sampled), len(plan.Admissible), plan.Total, plan.Resolution, plan.Resolution)
}

// cmdChoose re-runs the choosing-a-tradeoff stage on an archived
// hypercube, without touching any video: the cheap second half of the
// administration procedure.
func cmdChoose(args []string) {
	fs := flag.NewFlagSet("choose", flag.ExitOnError)
	load := fs.String("load", "", "hypercube JSON produced by `smokescreen profile -save` (required)")
	maxErr := fs.Float64("max-err", 0.1, "public preference: maximum analytical error")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *load == "" {
		fmt.Fprintln(os.Stderr, "smokescreen: choose requires -load")
		os.Exit(2)
	}
	f, err := os.Open(*load)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	cube, err := profile.LoadHypercube(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("hypercube: %s / %s / %s(count(%s))\n", cube.VideoName, cube.ModelName, cube.Agg, cube.Class)
	setting, ok := cube.ChooseTradeoff(*maxErr)
	if !ok {
		fatal(fmt.Errorf("no intervention candidate satisfies max error %v", *maxErr))
	}
	fmt.Printf("chosen tradeoff for max error %.4g: %s\n", *maxErr, setting)
}

func cmdDatasets() {
	for _, name := range dataset.Names() {
		info, err := dataset.Describe(name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s %s\n", name, info.Description)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smokescreen:", err)
	os.Exit(1)
}
