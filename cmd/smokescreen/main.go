// Command smokescreen is the interactive front door to the Smokescreen
// system: run analytical queries under destructive interventions, generate
// degradation-accuracy profiles, and choose tradeoffs.
//
// Usage:
//
//	smokescreen query   [-seed S] "SELECT AVG(count(car)) FROM night-street SAMPLE 0.1"
//	smokescreen profile [-seed S] [-max-err E] [-step F] [-max-fraction F] "SELECT ..."
//	smokescreen curve   [-seed S] [-resolution P] [-remove c1,c2] [-noise S] [-blur L] [-quantize Q] [-occlude D] "SELECT ..."
//	smokescreen ladder  [-seed S] [-name default] "SELECT ..."
//	smokescreen datasets
//
// The query subcommand executes the query under its own interventions and
// prints the approximate answer with its error bound. The profile
// subcommand runs the full profile-generation stage, prints the three
// loosest hypercube slices (the administrator's starting view, Section
// 3.1) and, when -max-err is given, the chosen tradeoff. The curve
// subcommand prints a single fraction-axis tradeoff curve.
package main

import (
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
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/scene"
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
  smokescreen profile  -remote http://127.0.0.1:8040 "SELECT AVG(count(car)) FROM small"
  smokescreen curve    [-resolution P] [-remove c] [-noise S] [-blur L] [-quantize Q] [-occlude D] "SELECT AVG(count(car)) FROM small"
  smokescreen ladder   [-name default] "SELECT AVG(count(car)) FROM small"
  smokescreen choose   -load cube.json -max-err 0.1
  smokescreen explain  "SELECT AVG(count(car)) FROM small RESOLUTION 160"
  smokescreen accuracy -dataset small -model yolov4 -class car
  smokescreen stream   -dataset small -sample 0.05 -resolution 160 -remove face
  smokescreen stream   -dataset small -window 300 -stride 150 -loops 3 -sample 0.2
  smokescreen stream   -remote http://127.0.0.1:8040 -dataset small -window 300
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
	seed := fs.Uint64("seed", 1, "randomness seed")
	truth := fs.Bool("truth", false, "also compute the exact answer (touches the whole corpus!)")
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
		exact, err := sys.GroundTruth(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exact:      %.6g (true error %.4f)\n", exact, math.Abs(res.Estimate.Value-exact)/math.Abs(exact))
	}
}

func cmdProfile(args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "randomness seed")
	maxErr := fs.Float64("max-err", 0, "public preference: maximum analytical error (0 = only print profiles)")
	step := fs.Float64("step", 0.01, "sample-fraction candidate interval")
	maxFraction := fs.Float64("max-fraction", 0.2, "largest sample-fraction candidate")
	save := fs.String("save", "", "archive the generated hypercube as JSON at this path")
	earlyStop := fs.Float64("early-stop", 0, "stop each sweep when the bound improves by less than this (0 = off)")
	remote := fs.String("remote", "", "smokescreend base URL (e.g. http://127.0.0.1:8040): fetch the tradeoff curve from the profile service instead of generating locally")
	timeout := fs.Duration("timeout", 5*time.Minute, "remote mode: total request timeout")
	q := parseQueryArg(fs, args)

	ctx, cancel := interruptCtx()
	defer cancel()

	if *remote != "" {
		remoteProfile(ctx, *remote, *timeout, server.GenRequest{
			Query:       q.String(),
			Seed:        *seed,
			Step:        *step,
			MaxFraction: *maxFraction,
			EarlyStop:   *earlyStop,
		})
		return
	}

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

// remoteProfile fetches a fraction-axis tradeoff curve from a running
// smokescreend and renders it like cmdCurve. The daemon serves the
// artifact from its content-addressed store, generating it (once, however
// many clients ask) on a miss.
func remoteProfile(parent context.Context, baseURL string, timeout time.Duration, req server.GenRequest) {
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	client := &server.Client{BaseURL: strings.TrimRight(baseURL, "/")}
	prof, key, err := client.Generate(ctx, req)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("profile service %s\n", baseURL)
	fmt.Printf("artifact key:   %s\n", key)
	fmt.Printf("tradeoff curve for %s (video %s, model %s)\n", req.Query, prof.VideoName, prof.ModelName)
	for _, pt := range prof.Points {
		bar := strings.Repeat("#", int(math.Min(pt.Estimate.ErrBound, 1)*50))
		fmt.Printf("  f=%-6.3g err<=%-7.4f %s\n", pt.Setting.SampleFraction, pt.Estimate.ErrBound, bar)
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

func cmdCurve(args []string) {
	fs := flag.NewFlagSet("curve", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "randomness seed")
	resolution := fs.Int("resolution", 0, "fix the resolution axis (0 = native)")
	remove := fs.String("remove", "", "comma-separated restricted classes")
	noise := fs.Float64("noise", 0, "fix the sensor-noise axis (sigma in [0,0.5])")
	blur := fs.Int("blur", 0, "fix the motion-blur axis (kernel length, 0 = off)")
	quantize := fs.Int("quantize", 0, "fix the quantization axis (intensity levels, 0 = off)")
	occlude := fs.Float64("occlude", 0, "fix the occlusion axis (scratch/dirt density in [0,0.5])")
	q := parseQueryArg(fs, args)

	var restricted []scene.Class
	if *remove != "" {
		for _, name := range strings.Split(*remove, ",") {
			c, err := scene.ParseClass(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			restricted = append(restricted, c)
		}
	}
	setting := degrade.Setting{
		Resolution: *resolution,
		Restricted: restricted,
		NoiseSigma: *noise,
		MotionBlur: *blur,
		Quantize:   *quantize,
		Occlusion:  *occlude,
	}
	ctx, cancel := interruptCtx()
	defer cancel()
	sys := smokescreen.New(smokescreen.WithSeed(*seed))
	fractions := make([]float64, 20)
	for i := range fractions {
		fractions[i] = 0.01 * float64(i+1)
	}
	opts := profile.SweepOptions{Fractions: fractions, Setting: setting}
	spec, err := sys.Resolve(q)
	if err != nil {
		fatal(err)
	}
	probe := setting
	probe.SampleFraction = fractions[0]
	if err := probe.Validate(spec.Model); err != nil {
		fatal(err)
	}
	if !probe.IsRandomOnly(spec.Model) {
		// Non-random axes need a correction set; generate one first.
		corr, err := profile.ConstructCorrectionCtx(ctx, spec, 0.2, stats.NewStream(*seed))
		if err != nil {
			fatal(err)
		}
		opts.Correction = corr.Correction
	}
	prof, err := sys.SweepProfileCtx(ctx, q, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tradeoff curve for %s\n", q)
	for _, pt := range prof.Points {
		bar := strings.Repeat("#", int(math.Min(pt.Estimate.ErrBound, 1)*50))
		fmt.Printf("  f=%-6.3g err<=%-7.4f %s\n", pt.Setting.SampleFraction, pt.Estimate.ErrBound, bar)
	}
}

// cmdLadder generates the fidelity-ladder profile of a query: one
// tradeoff point per tier of the named ladder, loosest first, with every
// non-random tier's bound repaired through the correction set.
func cmdLadder(args []string) {
	fs := flag.NewFlagSet("ladder", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "randomness seed")
	name := fs.String("name", "default", "ladder to evaluate")
	q := parseQueryArg(fs, args)

	ctx, cancel := interruptCtx()
	defer cancel()
	sys := smokescreen.New(smokescreen.WithSeed(*seed))
	spec, err := sys.Resolve(q)
	if err != nil {
		fatal(err)
	}
	ladder, err := plan.LadderByName(*name, spec.Model)
	if err != nil {
		fatal(err)
	}
	opts := profile.LadderOptions{}
	for _, tier := range ladder.Tiers {
		if !tier.Setting.IsRandomOnly(spec.Model) {
			corr, err := profile.ConstructCorrectionCtx(ctx, spec, 0.2, stats.NewStream(*seed))
			if err != nil {
				fatal(err)
			}
			opts.Correction = corr.Correction
			break
		}
	}
	prof, err := sys.LadderProfileCtx(ctx, q, ladder, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("fidelity ladder %q for %s\n", ladder.Name, q)
	for _, pt := range prof.Points {
		repaired := ""
		if pt.Repaired {
			repaired = " (repaired)"
		}
		fmt.Printf("  %-10s %-40s err<=%-7.4f%s\n", pt.Tier, pt.Setting, pt.Estimate.ErrBound, repaired)
	}
}

// cmdExplain resolves a query without executing it: which corpus and
// model will run, how the interventions classify (random vs non-random),
// how many frames the plan touches, and whether profile repair applies.
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "randomness seed")
	q := parseQueryArg(fs, args)

	sys := smokescreen.New(smokescreen.WithSeed(*seed))
	spec, err := sys.Resolve(q)
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
	admissible, err := degrade.AdmissibleFramesCtx(ctx, spec.Video, setting.Restricted)
	if err != nil {
		fatal(err)
	}
	want := int(float64(n)*setting.SampleFraction + 0.5)
	fmt.Printf("plan:          sample %d of %d admissible frames (corpus %d) at %dx%d\n",
		want, len(admissible), n, setting.ResolveResolution(spec.Model), setting.ResolveResolution(spec.Model))
	if want > len(admissible) {
		fmt.Println("warning:       the sample exceeds the admissible pool; execution will fail — lower SAMPLE")
	}
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
