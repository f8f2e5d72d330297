package core

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"smokescreen/internal/degrade"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/scene"
	"smokescreen/internal/stats"
)

func mustQuery(t *testing.T, input string) *query.Query {
	t.Helper()
	q, err := query.Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestResolveDefaults(t *testing.T) {
	s := New()
	spec, err := s.Resolve(mustQuery(t, "SELECT AVG(count(car)) FROM small"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model.Name != "yolov4-sim" {
		t.Fatalf("default model %s", spec.Model.Name)
	}
	spec, err = s.Resolve(mustQuery(t, "SELECT AVG(count(car)) FROM night-street"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model.Name != "mask-rcnn-sim" {
		t.Fatalf("night-street default model %s", spec.Model.Name)
	}
}

func TestResolveErrors(t *testing.T) {
	s := New()
	cases := []string{
		"SELECT AVG(count(car)) FROM nowhere",
		"SELECT AVG(count(car)) FROM small USING alexnet",
		"SELECT AVG(count(car)) FROM small RESOLUTION 100",
		"SELECT AVG(count(car)) FROM small USING mtcnn",
	}
	for _, input := range cases {
		if _, err := s.Resolve(mustQuery(t, input)); err == nil {
			t.Fatalf("Resolve(%q) accepted", input)
		}
	}
}

func TestResolveCountPredicate(t *testing.T) {
	s := New()
	spec, err := s.Resolve(mustQuery(t, "SELECT COUNT(*) FROM small WHERE count(car) >= 2"))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Class != scene.Car || spec.Predicate == nil {
		t.Fatalf("spec %+v", spec)
	}
	if spec.Predicate(1.5) != 0 || spec.Predicate(2) != 1 {
		t.Fatal("predicate transform wrong")
	}
}

func TestExecuteRandomSetting(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small SAMPLE 0.2")
	res, err := s.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired {
		t.Fatal("random-only execution should not repair")
	}
	truth, err := s.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth <= 0 {
		t.Fatalf("ground truth %v", truth)
	}
	trueErr := math.Abs(res.Estimate.Value-truth) / truth
	if trueErr > res.Estimate.ErrBound {
		t.Fatalf("bound %v below true error %v", res.Estimate.ErrBound, trueErr)
	}
}

func TestExecuteNonRandomRepairs(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small SAMPLE 0.3 RESOLUTION 96")
	res, err := s.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatal("non-random execution must repair")
	}
	truth, _ := s.GroundTruth(q)
	trueErr := math.Abs(res.Estimate.Value-truth) / truth
	if trueErr > res.Estimate.ErrBound {
		t.Fatalf("repaired bound %v below true error %v", res.Estimate.ErrBound, trueErr)
	}
}

func TestExecuteSettingValidation(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small")
	if _, err := s.ExecuteSettingCtx(context.Background(), q, degrade.Setting{SampleFraction: 2}); err == nil {
		t.Fatal("invalid setting accepted")
	}
}

func TestGenerateProfilesAndChoose(t *testing.T) {
	s := New(WithFractionCandidates(0.02, 0.1))
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small")
	profiles, err := s.GenerateProfilesCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if profiles.Cube == nil || profiles.Correction == nil {
		t.Fatal("profiles incomplete")
	}
	if len(profiles.Cube.Fractions) != 5 {
		t.Fatalf("fractions %v", profiles.Cube.Fractions)
	}
	if profiles.ModelInvocations <= 0 {
		t.Fatal("model invocations not counted")
	}
	if profiles.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}

	setting, err := s.ChooseTradeoff(profiles, Preferences{MaxError: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := setting.Validate(profiles.Spec.Model); err != nil {
		t.Fatalf("chosen setting invalid: %v", err)
	}
	// An impossible preference errors with guidance.
	if _, err := s.ChooseTradeoff(profiles, Preferences{MaxError: 1e-9}); err == nil {
		t.Fatal("impossible preference satisfied")
	} else if !strings.Contains(err.Error(), "loosen") {
		t.Fatalf("unhelpful error %v", err)
	}

	// Executing the chosen setting yields a bound within the preference.
	res, err := s.ExecuteSettingCtx(context.Background(), q, setting)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.ErrBound > 0.75 {
		t.Fatalf("executed bound %v far above preference", res.Estimate.ErrBound)
	}
}

func TestGenerateProfilesEarlyStop(t *testing.T) {
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small")
	full, err := New(WithFractionCandidates(0.02, 0.2)).GenerateProfilesCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := New(
		WithFractionCandidates(0.02, 0.2),
		WithEarlyStop(0.05),
	).GenerateProfilesCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	countFilled := func(p *Profiles) int {
		n := 0
		for _, plane := range p.Cube.Bounds {
			for _, row := range plane {
				for _, v := range row {
					if !math.IsNaN(v) {
						n++
					}
				}
			}
		}
		return n
	}
	if countFilled(stopped) >= countFilled(full) {
		t.Fatalf("early stop filled %d cells, full sweep %d", countFilled(stopped), countFilled(full))
	}
}

func TestSweepProfile(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small")
	prof, err := s.SweepProfileCtx(context.Background(), q, profile.SweepOptions{Fractions: []float64{0.05, 0.1, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Points) != 3 {
		t.Fatalf("profile points %d", len(prof.Points))
	}
}

func TestTransferProfile(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM mvi-40771 USING yolov4")
	prof, err := s.TransferProfile(context.Background(), q, "mvi-40775", profile.SweepOptions{Fractions: []float64{0.05, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prof.VideoName, "transferred from mvi-40775") {
		t.Fatalf("transfer label %q", prof.VideoName)
	}
}

// TestSweepProfileFollowsQueryClauses: the query is the sole statement of
// the sweep's non-sampling axes, and the system repairs a non-random sweep
// without being handed a correction set.
func TestSweepProfileFollowsQueryClauses(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small RESOLUTION 160")
	fractions := []float64{0.05, 0.1}
	prof, err := s.SweepProfileCtx(context.Background(), q, profile.SweepOptions{Fractions: fractions})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Points) != len(fractions) {
		t.Fatalf("profile points %d, want %d", len(prof.Points), len(fractions))
	}
	for _, pt := range prof.Points {
		if pt.Setting.Resolution != 160 || !pt.Repaired {
			t.Fatalf("point %+v: want resolution 160, repaired", pt)
		}
	}
	// Repeating the query's clauses is not a conflict; anything else is.
	same, err := s.SweepProfileCtx(context.Background(), q, profile.SweepOptions{Fractions: fractions, Setting: degrade.Setting{Resolution: 160}})
	if err != nil {
		t.Fatal(err)
	}
	if same.Points[1].Estimate != prof.Points[1].Estimate {
		t.Fatal("restating the query's clauses changed the profile")
	}
	for _, conflicting := range []degrade.Setting{{Resolution: 320}, {Resolution: 160, MotionBlur: 5}, {Restricted: []scene.Class{scene.Face}}} {
		if _, err := s.SweepProfileCtx(context.Background(), q, profile.SweepOptions{Fractions: fractions, Setting: conflicting}); err == nil {
			t.Fatalf("conflicting sweep setting %v accepted", conflicting)
		}
	}
}

// TestSweepProfileUsesSuppliedCorrection: a caller-built correction set
// (the explicit-size and TransferProfile paths) is used as given, not
// replaced by the system's own.
func TestSweepProfileUsesSuppliedCorrection(t *testing.T) {
	s := New(WithSeed(5))
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small BLUR 5")
	spec, err := s.Resolve(q)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := profile.BuildCorrectionAt(spec, 60, stats.NewStream(77))
	if err != nil {
		t.Fatal(err)
	}
	opts := profile.SweepOptions{Fractions: []float64{0.05, 0.1}, Correction: corr}
	got, err := s.SweepProfileCtx(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Setting = q.Setting
	want, err := profile.SweepFractionsCtx(context.Background(), spec, opts, stats.NewStream(5).Child(3))
	if err != nil {
		t.Fatal(err)
	}
	own, err := s.SweepProfileCtx(context.Background(), q, profile.SweepOptions{Fractions: opts.Fractions})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Points {
		if got.Points[i].Estimate != want.Points[i].Estimate {
			t.Fatalf("point %d: %+v, want the supplied correction's %+v", i, got.Points[i].Estimate, want.Points[i].Estimate)
		}
	}
	if got.Points[0].Estimate.ErrBound == own.Points[0].Estimate.ErrBound {
		t.Fatal("supplied and system-built correction sets gave the same bound; the test cannot tell them apart")
	}
	transferred, err := s.TransferProfile(context.Background(), mustQuery(t, "SELECT AVG(count(car)) FROM mvi-40771 USING yolov4 BLUR 5"), "small", opts)
	if err != nil {
		t.Fatal(err)
	}
	if transferred.Points[0].Estimate != want.Points[0].Estimate {
		t.Fatal("TransferProfile did not pass the supplied correction through")
	}
}

// TestLadderProfileOwnsItsAxes: a ladder's tiers carry the intervention
// axes, so a query with clauses of its own is rejected on every path, and a
// clean query gets its non-random tiers repaired by the system.
func TestLadderProfileOwnsItsAxes(t *testing.T) {
	s := New()
	ctx := context.Background()
	spec, ladder, err := s.ResolveLadder(mustQuery(t, "SELECT AVG(count(car)) FROM small"), "default")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Video.Config.Name != "small" || len(ladder.Tiers) == 0 {
		t.Fatalf("resolved %s with %d tiers", spec.Video.Config.Name, len(ladder.Tiers))
	}
	if _, _, err := s.ResolveLadder(mustQuery(t, "SELECT AVG(count(car)) FROM small"), "nope"); err == nil {
		t.Fatal("unknown ladder accepted")
	}
	for _, clause := range []string{"RESOLUTION 160", "RESOLUTION 608", "REMOVE face", "BLUR 5"} {
		q := mustQuery(t, "SELECT AVG(count(car)) FROM small "+clause)
		if _, _, err := s.ResolveLadder(q, "default"); err == nil {
			t.Fatalf("ResolveLadder accepted a query with %s", clause)
		}
		if _, err := s.LadderProfileCtx(ctx, q, ladder, profile.LadderOptions{}); err == nil {
			t.Fatalf("LadderProfileCtx accepted a query with %s", clause)
		}
	}
	prof, err := s.LadderProfileCtx(ctx, mustQuery(t, "SELECT AVG(count(car)) FROM small"), ladder, profile.LadderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	repaired := 0
	for _, pt := range prof.Points {
		if pt.Repaired {
			repaired++
		}
	}
	if len(prof.Points) < 2 || repaired == 0 || prof.Points[0].Repaired {
		t.Fatalf("ladder profile %d points, %d repaired, first repaired %v", len(prof.Points), repaired, prof.Points[0].Repaired)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	q := mustQuery(t, "SELECT SUM(count(car)) FROM small SAMPLE 0.1")
	a, err := New(WithSeed(9)).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithSeed(9)).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate {
		t.Fatal("same seed gave different results")
	}
	c, err := New(WithSeed(10)).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate == c.Estimate {
		t.Fatal("different seeds gave identical results")
	}
}

func TestVarQueryEndToEnd(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT VAR(count(car)) FROM small SAMPLE 0.8")
	res, err := s.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := s.GroundTruth(q)
	if err != nil {
		t.Fatal(err)
	}
	if truth <= 0 {
		t.Fatalf("variance ground truth %v", truth)
	}
	trueErr := math.Abs(res.Estimate.Value-truth) / truth
	if trueErr > res.Estimate.ErrBound {
		t.Fatalf("VAR bound %v below true error %v", res.Estimate.ErrBound, trueErr)
	}
}

func TestMaxQueryEndToEnd(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT MAX(count(car)) FROM small SAMPLE 0.3")
	res, err := s.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimate.Value < 1 {
		t.Fatalf("MAX estimate %v", res.Estimate.Value)
	}
	if res.Query.Agg != estimate.MAX {
		t.Fatal("query echo wrong")
	}
}

func TestExecuteUntil(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small")
	res, err := s.ExecuteUntilCtx(context.Background(), q, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.Estimate.ErrBound > 0.4 {
		t.Fatalf("adaptive run: %+v", res)
	}
	if _, err := s.ExecuteUntilCtx(context.Background(), mustQuery(t, "SELECT AVG(count(car)) FROM small RESOLUTION 160"), 0.4, 1); err == nil {
		t.Fatal("adaptive run with non-random setting accepted")
	}
}

func TestGroundTruthErrors(t *testing.T) {
	s := New()
	if _, err := s.GroundTruth(mustQuery(t, "SELECT AVG(count(car)) FROM nowhere")); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := s.Audit(mustQuery(t, "SELECT AVG(count(car)) FROM nowhere"), estimate.Estimate{}); err == nil {
		t.Fatal("Audit accepted an unknown dataset")
	}
}

// Audit is the one truth comparison every surface prints: for each
// aggregate, under a random-only and a repaired setting, it must report
// estimate.Audit's true error — rank error for MAX/MIN — GroundTruth's
// answer, and Held exactly when the bound is not below the true error.
func TestAuditReportsThePaperMetric(t *testing.T) {
	s := New()
	for _, sel := range []string{
		"AVG(count(car)) FROM small", "SUM(count(car)) FROM small", "COUNT(*) FROM small WHERE count(car) >= 2",
		"MAX(count(car)) FROM small", "MIN(count(car)) FROM small",
	} {
		for _, clauses := range []string{"SAMPLE 0.1", "SAMPLE 0.1 RESOLUTION 96"} {
			q := mustQuery(t, "SELECT "+sel+" "+clauses)
			res, err := s.ExecuteCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			audit, err := s.Audit(q, res.Estimate)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := s.Resolve(q)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := estimate.Audit(q.Agg, res.Estimate, spec.TruePopulation(), q.Params())
			if err != nil {
				t.Fatal(err)
			}
			want := direct.TrueError
			truth, err := s.GroundTruth(q)
			if err != nil {
				t.Fatal(err)
			}
			if audit.TrueError != want || audit.Truth != truth {
				t.Errorf("%s: Audit = %+v, want true error %v against truth %v", q, audit, want, truth)
			}
			if math.IsNaN(audit.TrueError) {
				t.Errorf("%s: true error is NaN (truth %v, answer %v)", q, audit.Truth, res.Estimate.Value)
			}
			if audit.Held != !(res.Estimate.ErrBound < audit.TrueError) {
				t.Errorf("%s: Held = %v with bound %v and true error %v", q, audit.Held, res.Estimate.ErrBound, audit.TrueError)
			}
		}
	}
}

func TestTransferProfileErrors(t *testing.T) {
	s := New()
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small")
	if _, err := s.TransferProfile(context.Background(), q, "nowhere", profile.SweepOptions{Fractions: []float64{0.1}}); err == nil {
		t.Fatal("unknown similar dataset accepted")
	}
}

func TestExecuteInfeasibleRemoval(t *testing.T) {
	s := New()
	// The small corpus is mostly person frames: full sampling under person
	// removal cannot be satisfied.
	q := mustQuery(t, "SELECT AVG(count(car)) FROM small REMOVE person")
	if _, err := s.ExecuteCtx(context.Background(), q); err == nil {
		t.Fatal("infeasible removal accepted")
	}
}

// TestMaxCubeRepeatableAcrossParallelism is the extremum-repair race
// regression: every cell of a MAX cube is repaired against one shared
// correction set, and estimate.Correction used to sort its sample on the
// first rank query, unlocked, so two estimate tasks could rank against a
// half-sorted copy and seal different bounds from run to run (the same query
// sealed 0.112 or 0.133 where 0.175 is right). Detector outputs stay cached
// after the first cube, so every repetition is almost only the estimate
// stage — the part that raced. Run under -race (make test-race).
func TestMaxCubeRepeatableAcrossParallelism(t *testing.T) {
	q := mustQuery(t, "SELECT MAX(count(person)) FROM small")
	var want []byte
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 20; rep++ {
			sys := New(WithSeed(1), WithParallelism(workers), WithFractionCandidates(0.02, 0.1))
			p, err := sys.GenerateProfilesCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := profile.SaveHypercube(&buf, p.Cube); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("parallelism %d, repetition %d: cube bytes differ from the first sequential cube", workers, rep)
			}
		}
	}
}
