package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"smokescreen/internal/core"
	"smokescreen/internal/plan"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
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

// DecodeGenRequest strictly decodes a profile-generation request with the
// decoder every HTTP surface runs behind readRequest's body bound, so skew
// behaves identically on every hop.
//
//smokevet:ignore reach: frozen benchmark hook: benchmark/serve_mix.go and staged.go time request decoding through it
func DecodeGenRequest(r io.Reader) (GenRequest, error) {
	return decodeStrict[GenRequest](r)
}

// decodeStrict is the daemon's one request decoder: unknown fields are a
// typed UnknownFieldError, and trailing garbage after the JSON document is
// rejected.
func decodeStrict[T any](r io.Reader) (T, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req, zero T
	if err := dec.Decode(&req); err != nil {
		// encoding/json has no typed unknown-field error; matching its
		// documented message rendering is the only detection available.
		//smokevet:ignore errcontract: stdlib json exposes unknown-field failures only through message text
		if strings.Contains(err.Error(), "unknown field") {
			return zero, &UnknownFieldError{Err: fmt.Errorf("server: decoding request: %w", err)}
		}
		return zero, fmt.Errorf("server: decoding request: %w", err)
	}
	var trailing struct{}
	switch err := dec.Decode(&trailing); {
	case err == io.EOF:
		return req, nil
	case errors.As(err, new(*http.MaxBytesError)):
		return zero, fmt.Errorf("server: decoding request: %w", err)
	default:
		return zero, fmt.Errorf("server: decoding request: trailing data after JSON body")
	}
}

// maxRequestBytes bounds every request body the daemon decodes.
const maxRequestBytes = 1 << 20

// readRequest strictly decodes r's body, at most maxRequestBytes of it,
// into a T. On failure it has answered — 413 for an oversize body, 400
// otherwise — and ok is false. Fleet nodes (internal/fleetd) decode
// profile requests through it (ReadGenRequest), so every hop bounds and
// rejects alike.
func readRequest[T any](w http.ResponseWriter, r *http.Request) (req T, ok bool) {
	req, err := decodeStrict[T](http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeDecodeError(w, err)
		return req, false
	}
	return req, true
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

// Normalize fills defaulted fields in place with core's defaults, exactly
// as the POST handler does before keying. Routing layers (internal/fleetd)
// call it so that a request forwarded between nodes canonicalizes to the
// same key and the same wire bytes on every hop.
func (r *GenRequest) Normalize() {
	if r.Seed == 0 {
		r.Seed = core.DefaultSeed
	}
	if r.Step == 0 {
		r.Step = core.DefaultFractionStep
	}
	if r.MaxFraction == 0 {
		r.MaxFraction = core.DefaultMaxFraction
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

// SystemGenerator adapts the wire request to the core system: resolve the
// request, let core.System generate the sweep or the ladder (core owns the
// correction-set policy and every random stream), serialize the profile.
// cmd/smokescreen's curve and ladder commands run the same adapter in
// process, so a request yields the same key and bytes on every surface.
type SystemGenerator struct {
	// CorrectionLimit is ignored: every generation runs at
	// core.DefaultCorrectionLimit, because the artifact key does not hash
	// the limit and two values would seal different bytes under one key.
	// The field survives only because the frozen benchmark/ module sets it
	// (to the default); ROADMAP item 8(a) drops it.
	CorrectionLimit float64
	// Parallelism bounds worker goroutines per generation; 0 or negative
	// means one per CPU (internal/parallel semantics applied by core).
	Parallelism int
}

// resolved is a request bound to the system that generates it.
type resolved struct {
	req       GenRequest // normalized
	sys       *core.System
	query     *query.Query
	spec      *profile.Spec
	fractions []float64
	ladder    plan.Ladder // zero unless req.Ladder is set
}

// resolve normalizes, parses and resolves the request. It is cheap: no
// detector work.
func (g *SystemGenerator) resolve(req GenRequest) (*resolved, error) {
	req.Normalize()
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	if req.Step <= 0 || req.MaxFraction <= 0 || req.MaxFraction > 1 || req.Step > req.MaxFraction {
		return nil, fmt.Errorf("server: invalid sweep [step %v, max %v]", req.Step, req.MaxFraction)
	}
	r := &resolved{
		req:       req,
		sys:       core.New(core.WithSeed(req.Seed), core.WithParallelism(g.Parallelism)),
		query:     q,
		fractions: plan.CandidateFractions(req.Step, req.MaxFraction),
	}
	if req.Ladder != "" {
		r.spec, r.ladder, err = r.sys.ResolveLadder(q, req.Ladder)
	} else {
		r.spec, err = r.sys.Resolve(q)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Key implements Generator.
func (g *SystemGenerator) Key(req GenRequest) (string, string, error) {
	r, err := g.resolve(req)
	if err != nil {
		return "", "", err
	}
	ks := profile.KeySpec{
		VideoName:  r.spec.Video.Config.Name,
		FrameCount: r.spec.Video.NumFrames(),
		ModelName:  r.spec.Model.Name,
		Query:      r.query.String(),
		Family: profile.Family{
			Fractions:      r.fractions,
			Setting:        r.query.Setting,
			EarlyStopDelta: r.req.EarlyStop,
		},
		Ladder: r.req.Ladder,
		Params: r.query.Params(),
		Seed:   r.req.Seed,
	}
	return ks.CanonicalKey(), r.query.String(), nil
}

// Generate implements Generator: resolve, generate through core, serialize.
// ctx is threaded through the whole pipeline: a canceled job stops detector
// work mid-generation and returns the context error, so no partial profile
// is ever serialized or stored.
func (g *SystemGenerator) Generate(ctx context.Context, req GenRequest) ([]byte, error) {
	r, err := g.resolve(req)
	if err != nil {
		return nil, err
	}
	var prof *profile.Profile
	if r.req.Ladder != "" {
		prof, err = r.sys.LadderProfileCtx(ctx, r.query, r.ladder, profile.LadderOptions{})
	} else {
		prof, err = r.sys.SweepProfileCtx(ctx, r.query, profile.SweepOptions{
			Fractions:      r.fractions,
			EarlyStopDelta: r.req.EarlyStop,
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
