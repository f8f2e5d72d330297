package smokescreen_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"smokescreen/internal/core"
	"smokescreen/internal/detect"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/server"
)

// goldenProfileDigests pins the SaveProfile bytes a default daemon seals
// for a handful of cold requests over `small`: one per kind of pixel work
// the float patch pipeline does (native patches, downsampled patches, a
// blurred view, a face-removal correction set, the composite ladder). The
// digests were captured on the commit before the fused float kernel landed
// and are NEVER updated by a performance change: a kernel that moves one
// bit of one detection moves a column, an err_b and therefore these bytes.
var goldenProfileDigests = []struct {
	name   string
	req    server.GenRequest
	sha256 string
}{
	{"none/MAX", server.GenRequest{Query: "SELECT MAX(count(car)) FROM small"}, "92690c3ee8e0dca38f2922b3f0fb508b3b609988950eb4ccf168f2c074c66e81"},
	{"RESOLUTION 160", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small RESOLUTION 160"}, "e7b1ce5fe6278c1c885e58aa1e58ef9c04e90409f94772d5797eab16efe4fac1"},
	{"BLUR 5", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small BLUR 5"}, "fdd8518736ccfa0df6085b94e3e2e3089e28268c7ef4a1dd3563d543f1179b7e"},
	{"REMOVE face", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small REMOVE face"}, "701c08786736ff76c91491cb38220202a02610a1f25da9d713d3f20b68566720"},
	{"ladder:default", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small", Ladder: "default"}, "77be9a9974927f62e46965fd2a481f84faf3eeba46cf965de8b84d508fe1b8b5"},
	// Captured on 2b37c40, before the executors were merged: the lazy
	// early-stop loop, which none of the rows above reaches (it stops after
	// four of the five fractions).
	{"early-stop/BLUR 5", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small BLUR 5", EarlyStop: 0.01}, "94f9774f4d39452c1de4ce49facb238bef9f761c4d61e18eb89247cf6c119c0d"},
	// Captured on 1fd1fcc, before the box kernel tabled its window edges:
	// the 640-pixel corpus resamples every patch, and its pixel views render
	// through the in-place background and object-row paths.
	{"mvi-40775/QUANTIZE 16", server.GenRequest{Query: "SELECT AVG(count(person)) FROM mvi-40775 QUANTIZE 16"}, "f847a58b64d4e3ec71d9101a3a6267d5128c05e1ca00f37193e301ccf238a61f"},
	{"mvi-40775/BLUR 9", server.GenRequest{Query: "SELECT AVG(count(person)) FROM mvi-40775 BLUR 9"}, "aecb19659e2882e1c1e4a2f4a20518fb8fb4357c6be11b90b6148364784bbe74"},
	// Captured on 91efcdf, before the noise row kernel and the run-sum
	// labeller: extra sensor noise, the axis with the most noise components.
	{"NOISE 0.05", server.GenRequest{Query: "SELECT AVG(count(car)) FROM small NOISE 0.05"}, "bfdeb00858d05c35c6a6a9883b465526809a8c4be999a4cd90d65d11633ead78"},
}

// goldenCubeDigests pins the SaveHypercube bytes of core.GenerateProfilesCtx
// over `small` (seed 1, step 0.02, max 0.1), eager and early-stopping. Also
// captured on 2b37c40; the same never-update rule applies.
var goldenCubeDigests = []struct {
	name   string
	opts   []core.Option
	sha256 string
}{
	{"eager", nil, "2bf752d60d829a0de408e51b38edc89bae0223bfddd1b6a7d085f02b4e74eb9f"},
	{"early-stop", []core.Option{core.WithEarlyStop(0.01)}, "0a237ba1420f1b66d10e8c3b0b95f9ffa9e06b47bbb855d2fb47168244f69d24"},
}

// goldenParallelism is the worker settings every pinned artifact must be
// identical at: sequential and one worker per CPU.
var goldenParallelism = []int{1, 0}

// TestGoldenProfileBytes generates each pinned request the way
// cmd/smokescreend does at its flag defaults (float rasters, delta off)
// from cold detector caches, sequentially and with one worker per CPU, and
// compares the payload digest with the committed one.
func TestGoldenProfileBytes(t *testing.T) {
	for _, g := range goldenProfileDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for _, workers := range goldenParallelism {
				detect.ResetCaches()
				gen := &server.SystemGenerator{CorrectionLimit: 0.2, Parallelism: workers}
				req := g.req
				req.Seed, req.Step, req.MaxFraction = 1, 0.02, 0.1
				payload, err := gen.Generate(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(payload)
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("parallelism %d: SaveProfile bytes changed: sha256 %s, pinned %s (%d bytes)", workers, got, g.sha256, len(payload))
				}
			}
		})
	}
}

// TestGoldenProfileParity is the front-door row: for every pinned request,
// core's own path — parse, SweepProfileCtx or LadderProfileCtx with no
// correction set supplied, SaveProfile — yields the bytes the daemon's
// generator seals. On c6e588d it fails for every non-random row: core
// refused to sweep without a caller-built correction set and ignored the
// query's own intervention clauses. The last row is unpinned: a two-class
// REMOVE is the generator's artifact whichever way round it is spelled.
func TestGoldenProfileParity(t *testing.T) {
	for _, g := range goldenProfileDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for _, workers := range goldenParallelism {
				req := g.req
				req.Step, req.MaxFraction = 0.02, 0.1
				sum := sha256.Sum256(corePathBytes(t, req, workers))
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("parallelism %d: core path bytes differ from the generator's: sha256 %s, pinned %s", workers, got, g.sha256)
				}
			}
		})
	}
	t.Run("REMOVE face,car", func(t *testing.T) {
		// 108 of small's 1200 frames hold neither class, so f stops at 0.08.
		req := server.GenRequest{Query: "SELECT AVG(count(person)) FROM small REMOVE face,car", Seed: 1, Step: 0.02, MaxFraction: 0.08}
		got := corePathBytes(t, req, 1)
		detect.ResetCaches()
		req.Query = "SELECT AVG(count(person)) FROM small REMOVE car,face"
		want, err := (&server.SystemGenerator{Parallelism: 1}).Generate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("core path bytes for REMOVE face,car differ from the generator's for REMOVE car,face")
		}
	})
}

// corePathBytes generates req at seed 1 from cold caches without the
// server package: query.Parse, core.System, SaveProfile.
func corePathBytes(t *testing.T, req server.GenRequest, workers int) []byte {
	t.Helper()
	detect.ResetCaches()
	q, err := query.Parse(req.Query)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(core.WithSeed(1), core.WithParallelism(workers))
	var prof *profile.Profile
	if req.Ladder != "" {
		// Resolve + LadderByName rather than ResolveLadder, so the test
		// compiles — and fails — on the parent commit.
		spec, rerr := sys.Resolve(q)
		if rerr != nil {
			t.Fatal(rerr)
		}
		ladder, lerr := plan.LadderByName(req.Ladder, spec.Model)
		if lerr != nil {
			t.Fatal(lerr)
		}
		prof, err = sys.LadderProfileCtx(context.Background(), q, ladder, profile.LadderOptions{})
	} else {
		prof, err = sys.SweepProfileCtx(context.Background(), q, profile.SweepOptions{
			Fractions:      plan.CandidateFractions(req.Step, req.MaxFraction),
			EarlyStopDelta: req.EarlyStop,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := profile.SaveProfile(&buf, prof); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenHypercubeBytes is the same gate for the (f, p, c) hypercube,
// which the benchmark only ever compares with its own first run.
func TestGoldenHypercubeBytes(t *testing.T) {
	q, err := query.Parse("SELECT AVG(count(car)) FROM small")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenCubeDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for _, workers := range goldenParallelism {
				detect.ResetCaches()
				opts := append([]core.Option{core.WithSeed(1), core.WithFractionCandidates(0.02, 0.1), core.WithParallelism(workers)}, g.opts...)
				p, err := core.New(opts...).GenerateProfilesCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := profile.SaveHypercube(&buf, p.Cube); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("parallelism %d: SaveHypercube bytes changed: sha256 %s, pinned %s (%d bytes)", workers, got, g.sha256, buf.Len())
				}
			}
		})
	}
}
