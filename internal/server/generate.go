package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"smokescreen/internal/core"
	"smokescreen/internal/estimate"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/stats"
)

// UnknownFieldError reports a request body carrying a field this server
// version does not know. Version skew across a fleet makes this a real
// operational case — a newer client (or a newer node forwarding a request)
// must get a diagnosable, typed rejection instead of a silently truncated
// request that generates (and caches, content-addressed forever) the
// wrong artifact.
type UnknownFieldError struct {
	Err error
}

func (e *UnknownFieldError) Error() string { return e.Err.Error() }
func (e *UnknownFieldError) Unwrap() error { return e.Err }

// DecodeGenRequest strictly decodes a profile-generation request:
// unknown fields are a typed UnknownFieldError, and trailing garbage
// after the JSON document is rejected. Every HTTP surface that accepts a
// GenRequest (the single-node daemon and the fleet nodes) decodes through
// this one function so skew behaves identically on every hop.
func DecodeGenRequest(r io.Reader) (GenRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req GenRequest
	if err := dec.Decode(&req); err != nil {
		// encoding/json has no typed unknown-field error; matching its
		// documented message rendering is the only detection available.
		//smokevet:ignore errcontract: stdlib json exposes unknown-field failures only through message text
		if strings.Contains(err.Error(), "unknown field") {
			return GenRequest{}, &UnknownFieldError{Err: fmt.Errorf("server: decoding request: %w", err)}
		}
		return GenRequest{}, fmt.Errorf("server: decoding request: %w", err)
	}
	var trailing struct{}
	if err := dec.Decode(&trailing); err != io.EOF {
		return GenRequest{}, fmt.Errorf("server: decoding request: trailing data after JSON body")
	}
	return req, nil
}

// GenRequest is the wire form of a profile-generation request: the
// analytical query plus the sweep and estimator knobs that shape the
// tradeoff curve. Fields with zero values take the paper's defaults, so
// two requests that spell the defaults differently still canonicalize to
// the same artifact key.
type GenRequest struct {
	// Query is the analytical query in Smokescreen's query language; its
	// RESOLUTION/REMOVE clauses fix the non-sampling axes of the sweep.
	Query string `json:"query"`
	// Seed is the root randomness seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Step and MaxFraction define the swept sample fractions
	// (defaults 0.01 and 0.2, the paper's candidate design).
	Step        float64 `json:"step,omitempty"`
	MaxFraction float64 `json:"max_fraction,omitempty"`
	// EarlyStop enables the paper's early stopping (0 = off).
	EarlyStop float64 `json:"early_stop,omitempty"`
	// Ladder names a fidelity ladder; when set the artifact is a ladder
	// profile (one point per tier) instead of a fraction sweep, and the
	// query's own intervention clauses must be empty — tiers carry them.
	Ladder string `json:"ladder,omitempty"`
	// Async asks POST /v1/profiles to return 202 with a job id instead of
	// waiting for generation to finish.
	Async bool `json:"async,omitempty"`
}

// Normalize fills defaulted fields in place, exactly as the POST handler
// does before keying. Routing layers (internal/fleetd) call it so that a
// request forwarded between nodes canonicalizes to the same key and the
// same wire bytes on every hop.
func (r *GenRequest) Normalize() { r.normalize() }

// normalize fills defaulted fields in place.
func (r *GenRequest) normalize() {
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Step == 0 {
		r.Step = 0.01
	}
	if r.MaxFraction == 0 {
		r.MaxFraction = 0.2
	}
}

// Generator resolves requests to canonical artifact keys and runs the
// expensive generation stage. Key must be cheap (no detector work);
// Generate is what the job queue schedules.
type Generator interface {
	// Key resolves the request against the corpus and model registries and
	// returns the canonical content address of the artifact it would
	// produce, plus the canonical query string for job bookkeeping.
	Key(req GenRequest) (key, canonicalQuery string, err error)
	// Generate produces the artifact payload (profile JSON). It must be
	// deterministic: equal requests yield byte-identical payloads.
	Generate(ctx context.Context, req GenRequest) ([]byte, error)
}

// SystemGenerator generates fraction-axis tradeoff curves and fidelity-ladder
// profiles with the core Smokescreen system: construct a correction set
// when the request covers non-random interventions, then sweep the
// candidate fractions (or evaluate the ladder's tiers) on the parallel
// engine and serialize the profile.
type SystemGenerator struct {
	// CorrectionLimit caps the correction-set fraction (default 0.2).
	CorrectionLimit float64
	// Parallelism bounds worker goroutines per generation; 0 or negative
	// means one per CPU (internal/parallel semantics applied by core).
	Parallelism int
}

// resolve parses and resolves the request, returning the parsed query,
// the bound spec, and the swept fractions.
func (g *SystemGenerator) resolve(req GenRequest) (*query.Query, *profile.Spec, []float64, error) {
	req.normalize()
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, nil, nil, err
	}
	// Canonicalize the restricted-class order so "REMOVE person,face" and
	// "REMOVE face,person" address (and generate) the same artifact;
	// removal is a set operation, so sorting cannot change results.
	sort.Slice(q.Setting.Restricted, func(i, j int) bool {
		return q.Setting.Restricted[i].String() < q.Setting.Restricted[j].String()
	})
	if req.Step <= 0 || req.MaxFraction <= 0 || req.MaxFraction > 1 || req.Step > req.MaxFraction {
		return nil, nil, nil, fmt.Errorf("server: invalid sweep [step %v, max %v]", req.Step, req.MaxFraction)
	}
	sys := core.New(core.WithSeed(req.Seed))
	spec, err := sys.Resolve(q)
	if err != nil {
		return nil, nil, nil, err
	}
	if req.Ladder != "" {
		if _, err := plan.LadderByName(req.Ladder, spec.Model); err != nil {
			return nil, nil, nil, err
		}
		if q.Setting.Resolution != 0 || len(q.Setting.Restricted) > 0 || q.Setting.ViewSpec() != "" {
			return nil, nil, nil, fmt.Errorf("server: ladder requests take their intervention axes from the ladder's tiers; drop the query's RESOLUTION/REMOVE/NOISE/BLUR/QUANTIZE/OCCLUDE clauses")
		}
	}
	return q, spec, plan.CandidateFractions(req.Step, req.MaxFraction), nil
}

// Key implements Generator.
func (g *SystemGenerator) Key(req GenRequest) (string, string, error) {
	req.normalize()
	q, spec, fractions, err := g.resolve(req)
	if err != nil {
		return "", "", err
	}
	ks := profile.KeySpec{
		VideoName:  spec.Video.Config.Name,
		FrameCount: spec.Video.NumFrames(),
		ModelName:  spec.Model.Name,
		Query:      q.String(),
		Family: profile.Family{
			Fractions:      fractions,
			Setting:        q.Setting,
			EarlyStopDelta: req.EarlyStop,
		},
		Ladder: req.Ladder,
		Params: q.Params(),
		Seed:   req.Seed,
	}
	return ks.CanonicalKey(), q.String(), nil
}

// Generate implements Generator: resolve the request, construct a
// correction set when anything the artifact covers is non-random, generate
// the sweep or the ladder, and serialize the profile.
func (g *SystemGenerator) Generate(ctx context.Context, req GenRequest) ([]byte, error) {
	req.normalize()
	q, spec, fractions, err := g.resolve(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A ladder request's query carries no intervention axes (resolve checks);
	// its tiers do.
	nonRandom := !q.Setting.IsRandomOnly(spec.Model)
	var ladder plan.Ladder
	if req.Ladder != "" {
		if ladder, err = plan.LadderByName(req.Ladder, spec.Model); err != nil {
			return nil, err
		}
		for _, tier := range ladder.Tiers {
			nonRandom = nonRandom || !tier.Setting.IsRandomOnly(spec.Model)
		}
	}
	var correction *estimate.Correction
	if nonRandom {
		// Non-random axes need a correction set for sound bounds.
		limit := g.CorrectionLimit
		if limit == 0 {
			limit = 0.2
		}
		corr, err := profile.ConstructCorrectionCtx(ctx, spec, limit, stats.NewStream(req.Seed).Child(1))
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("server: constructing correction set: %w", err)
		}
		correction = corr.Correction
	}
	// ctx is threaded through the whole plan/execute pipeline: a canceled
	// job stops detector work mid-generation and returns the context error,
	// so no partial profile is ever serialized or stored.
	sys := core.New(core.WithSeed(req.Seed), core.WithParallelism(g.Parallelism))
	var prof *profile.Profile
	switch {
	case req.Ladder != "":
		prof, err = sys.LadderProfileCtx(ctx, q, ladder, profile.LadderOptions{Correction: correction})
	default:
		prof, err = sys.SweepProfileCtx(ctx, q, profile.SweepOptions{
			Fractions:      fractions,
			Setting:        q.Setting,
			Correction:     correction,
			EarlyStopDelta: req.EarlyStop,
		})
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// Cancel raced the generation's completion; drop the result rather
		// than publish after the caller's deadline.
		return nil, err
	}
	var buf bytes.Buffer
	if err := profile.SaveProfile(&buf, prof); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
