package multicam

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"smokescreen/internal/core"
	"smokescreen/internal/dataset"
	"smokescreen/internal/query"
)

// camerasOf parses one query per camera, named cam0, cam1, ...
func camerasOf(t *testing.T, texts ...string) []Camera {
	t.Helper()
	cameras := make([]Camera, len(texts))
	for i, text := range texts {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		cameras[i] = Camera{Name: fmt.Sprintf("cam%d", i), Query: q}
	}
	return cameras
}

// fleetOf assembles camerasOf(texts) into a fleet run by a system with the
// given seed.
func fleetOf(t *testing.T, seed uint64, texts ...string) *Fleet {
	t.Helper()
	f, err := New(core.New(core.WithSeed(seed)), camerasOf(t, texts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pairFleet is the A/B sequence pair, each under a random-only setting.
func pairFleet(t *testing.T, seed uint64, selectClause string, fractions ...float64) *Fleet {
	t.Helper()
	return fleetOf(t, seed,
		fmt.Sprintf("%s FROM mvi-40771 SAMPLE %g", selectClause, fractions[0]),
		fmt.Sprintf("%s FROM mvi-40775 SAMPLE %g", selectClause, fractions[1]))
}

// TestNewValidation: every refusal is an error at New naming what is wrong,
// none a panic and none deferred to QueryCtx (MAX / MIN / VAR have their
// own test below).
func TestNewValidation(t *testing.T) {
	const avg = "SELECT AVG(count(car)) FROM small SAMPLE 0.1"
	cases := []struct {
		name  string
		texts []string // camera i is named by names[i], default cam<i>
		names []string
		want  string
	}{
		{"empty fleet", nil, nil, "at least one camera"},
		{"duplicate names", []string{avg, avg}, []string{"a", "a"}, `duplicate camera name "a"`},
		{"empty name", []string{avg}, []string{""}, "has no name"},
		{"unknown dataset", []string{"SELECT AVG(count(car)) FROM nowhere SAMPLE 0.1"}, nil, "nowhere"},
		{"unknown model", []string{"SELECT AVG(count(car)) FROM small USING resnet SAMPLE 0.1"}, nil, "resnet"},
		{"undetectable class", []string{"SELECT AVG(count(car)) FROM small USING mtcnn SAMPLE 0.1"}, nil, "cannot detect"},
		{"invalid resolution", []string{"SELECT AVG(count(car)) FROM small RESOLUTION 123"}, nil, "resolution"},
		{"aggregate", []string{avg, "SELECT SUM(count(car)) FROM highway SAMPLE 0.1"}, nil, "fleet's aggregate"},
		{"class", []string{avg, "SELECT AVG(count(person)) FROM highway SAMPLE 0.1"}, nil, "fleet's class"},
		{"predicate", []string{
			"SELECT COUNT(*) FROM small WHERE count(car) >= 2 SAMPLE 0.1",
			"SELECT COUNT(*) FROM highway WHERE count(car) >= 3 SAMPLE 0.1"}, nil, "fleet's predicate"},
		{"confidence", []string{avg, "SELECT AVG(count(car)) FROM highway SAMPLE 0.1 CONFIDENCE 99"}, nil, "fleet's confidence"},
	}
	for _, tc := range cases {
		cameras := camerasOf(t, tc.texts...)
		for i, name := range tc.names {
			cameras[i].Name = name
		}
		_, err := New(core.New(), cameras...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(core.New(), Camera{Name: "a"}); err == nil || !strings.Contains(err.Error(), "has no query") {
		t.Errorf("nil query: error %v", err)
	}
}

func TestFleetSizeAndFrames(t *testing.T) {
	f := pairFleet(t, 1, "SELECT AVG(count(car))", 0.2, 0.2)
	if f.Size() != 2 {
		t.Fatalf("Size = %d", f.Size())
	}
	want := dataset.MustLoad("mvi-40771").NumFrames() + dataset.MustLoad("mvi-40775").NumFrames()
	if f.TotalFrames() != want {
		t.Fatalf("TotalFrames = %d, want %d", f.TotalFrames(), want)
	}
}

// TestFleetMixedSettingsWithRepair is the risk split: in a fleet of K
// cameras, camera i's result is what the front door answers for that
// camera's query at delta/K — the degraded estimate AND the correction set
// behind a non-random camera's repair, which the system builds from that
// query's own Params. It cannot be written against the parent's API, where
// the correction set was the caller's and built at whatever delta the
// caller had: there was no query to compare a camera with.
func TestFleetMixedSettingsWithRepair(t *testing.T) {
	fleets := [][]string{
		{"SELECT AVG(count(car)) FROM mvi-40771 SAMPLE 0.3 RESOLUTION 320",
			"SELECT AVG(count(car)) FROM mvi-40775 SAMPLE 0.3"},
		{"SELECT SUM(count(car)) FROM small SAMPLE 0.3 RESOLUTION 160",
			"SELECT SUM(count(car)) FROM highway SAMPLE 0.1",
			"SELECT SUM(count(car)) FROM mvi-40775 SAMPLE 0.2 NOISE 0.05"},
	}
	const seed = 91
	sys := core.New(core.WithSeed(seed))
	for _, texts := range fleets {
		k := float64(len(texts))
		res, err := fleetOf(t, seed, texts...).QueryCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var weights float64
		for i, cam := range res.Cameras {
			weights += cam.Weight
			q, err := query.Parse(texts[i])
			if err != nil {
				t.Fatal(err)
			}
			q.Delta /= k
			want, err := sys.ExecuteCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if cam.Estimate != want.Estimate {
				t.Errorf("%s: camera estimate %+v, front door at delta/%v %+v", texts[i], cam.Estimate, k, want.Estimate)
			}
			spec, err := sys.Resolve(q)
			if err != nil {
				t.Fatal(err)
			}
			if nonRandom := !q.Setting.IsRandomOnly(spec.Model); cam.Repaired != nonRandom || want.Repaired != nonRandom {
				t.Errorf("%s: repaired %v (front door %v), non-random %v", texts[i], cam.Repaired, want.Repaired, nonRandom)
			}
			// The same split spelled in the query language: CONFIDENCE takes
			// a percent, and 1 - pct/100 is delta/K only to the last ulps.
			spelled, err := query.Parse(fmt.Sprintf("%s CONFIDENCE %.12g", texts[i], 100*(1-0.05/k)))
			if err != nil {
				t.Fatal(err)
			}
			text, err := sys.ExecuteCtx(context.Background(), spelled)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cam.Estimate.Value-text.Estimate.Value) > 1e-9*math.Abs(text.Estimate.Value) ||
				math.Abs(cam.Estimate.ErrBound-text.Estimate.ErrBound) > 1e-9 {
				t.Errorf("%s: camera %+v, query text at CONFIDENCE %.12g %+v", texts[i], cam.Estimate, 100*(1-0.05/k), text.Estimate)
			}
		}
		if math.Abs(weights-1) > 1e-9 {
			t.Errorf("weights sum to %v", weights)
		}
	}
}

// TestFleetOfOne: with K = 1 there is nothing to split or recombine, and
// the fleet's answer is the camera's own (while its bound is below 1; at 1
// or above the fleet reports the conservative pair, as for any K).
func TestFleetOfOne(t *testing.T) {
	for _, text := range []string{
		"SELECT AVG(count(car)) FROM small SAMPLE 0.3 RESOLUTION 160",
		"SELECT SUM(count(car)) FROM highway SAMPLE 0.2",
		"SELECT COUNT(*) FROM small WHERE count(car) >= 2 SAMPLE 0.3",
	} {
		res, err := fleetOf(t, 1, text).QueryCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.New(core.WithSeed(1)).ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Estimate
		if math.Abs(got.Value-want.Estimate.Value) > 1e-12*math.Abs(want.Estimate.Value) ||
			math.Abs(got.ErrBound-want.Estimate.ErrBound) > 1e-12 ||
			got.N != want.Estimate.N || got.Sample != want.Estimate.Sample {
			t.Errorf("%s: fleet of one %+v, camera alone %+v", text, got, want.Estimate)
		}
	}
}

func TestFleetSumScaling(t *testing.T) {
	ctx := context.Background()
	avg, err := pairFleet(t, 79, "SELECT AVG(count(car))", 0.3, 0.3).QueryCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f := pairFleet(t, 79, "SELECT SUM(count(car))", 0.3, 0.3)
	sum, err := f.QueryCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := avg.Estimate.Value * float64(f.TotalFrames())
	if math.Abs(sum.Estimate.Value-want) > 1e-6*want {
		t.Fatalf("SUM %v, want AVG*N %v", sum.Estimate.Value, want)
	}
	if math.Abs(sum.Estimate.ErrBound-avg.Estimate.ErrBound) > 1e-12 {
		t.Fatalf("SUM bound %v should equal AVG bound %v", sum.Estimate.ErrBound, avg.Estimate.ErrBound)
	}
}

// TestFleetRejectsExtremumAndVar: rank and variance errors are
// corpus-local, so no fleet of them can be assembled — whatever the other
// cameras ask.
func TestFleetRejectsExtremumAndVar(t *testing.T) {
	for _, agg := range []string{"MAX", "MIN", "VAR"} {
		cameras := camerasOf(t,
			fmt.Sprintf("SELECT %s(count(car)) FROM mvi-40771 SAMPLE 0.2", agg),
			fmt.Sprintf("SELECT %s(count(car)) FROM mvi-40775 SAMPLE 0.2", agg))
		if _, err := New(core.New(), cameras...); err == nil || !strings.Contains(err.Error(), "does not compose") {
			t.Fatalf("%s fleet: error %v", agg, err)
		}
	}
}

func TestFleetDegenerateCameraFallsBack(t *testing.T) {
	// A camera sampled so thinly that its interval collapses (one frame of
	// 1720) must push the fleet to the conservative (0, err=1) answer
	// rather than a bogus one.
	res, err := pairFleet(t, 93, "SELECT AVG(count(car))", 0.0006, 0.3).QueryCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, cam := range res.Cameras {
		if cam.Estimate.ErrBound >= 1 {
			if res.Estimate.ErrBound != 1 || res.Estimate.Value != 0 {
				t.Fatalf("degenerate camera not propagated: %+v", res.Estimate)
			}
			return
		}
	}
	t.Fatalf("no camera degenerated at SAMPLE 0.0006: %+v", res.Cameras)
}
