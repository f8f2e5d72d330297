// Package smokescreen is the public API of Smokescreen-Go, a from-scratch
// Go reproduction of "Controlled Intentional Degradation in Analytical
// Video Systems" (He & Cafarella, SIGMOD 2022).
//
// Smokescreen lets a public administrator intentionally degrade
// surveillance video — reduced frame sampling, reduced resolution, image
// removal — for privacy, bandwidth, energy or legal-compliance reasons,
// while keeping analytical aggregate queries (AVG, SUM, COUNT, MAX, MIN
// over per-frame detector outputs) inside a known error budget. Its core
// product is the *degradation-accuracy profile*: a per-query tradeoff
// curve of error upper bounds across intervention settings, computed
// without access to the non-degraded video.
//
// # Quick start
//
//	sys := smokescreen.New()
//	q, err := smokescreen.ParseQuery(
//	    "SELECT AVG(count(car)) FROM night-street USING mask-rcnn")
//	profiles, err := sys.GenerateProfilesCtx(ctx, q)
//	setting, err := sys.ChooseTradeoff(profiles, smokescreen.Preferences{MaxError: 0.1})
//	result, err := sys.ExecuteSettingCtx(ctx, q, setting)
//	fmt.Println(result.Estimate.Value, result.Estimate.ErrBound)
//
// See the examples directory for complete programs, DESIGN.md for the
// system inventory and EXPERIMENTS.md for the paper-versus-measured
// reproduction record.
package smokescreen

import (
	"smokescreen/internal/core"
	"smokescreen/internal/dataset"
	"smokescreen/internal/degrade"
	"smokescreen/internal/detect"
	"smokescreen/internal/estimate"
	"smokescreen/internal/profile"
	"smokescreen/internal/query"
	"smokescreen/internal/scene"
)

// Core system types.
type (
	// System is a Smokescreen instance: profile generation, tradeoff
	// selection and degraded query execution.
	System = core.System
	// Option configures New.
	Option = core.Option
	// Profiles is the output of the profile-generation stage: the
	// degradation hypercube plus the constructed correction set.
	Profiles = core.Profiles
	// Preferences are the public preferences guiding a tradeoff choice.
	Preferences = core.Preferences
	// Result is an executed query answer with its error bound.
	Result = core.Result
)

// Query language types.
type (
	// Query is a parsed analytical query.
	Query = query.Query
	// Predicate is the COUNT(*) WHERE filter.
	Predicate = query.Predicate
)

// Intervention and estimation types.
type (
	// Setting is one point of the intervention space: the paper's
	// (f, p, c) triple.
	Setting = degrade.Setting
	// Estimate is an approximate answer with its error upper bound.
	Estimate = estimate.Estimate
	// Params carries the estimator knobs (risk delta, extreme quantile r).
	Params = estimate.Params
	// Agg names an aggregate function.
	Agg = estimate.Agg
	// Class names a detectable object class.
	Class = scene.Class
	// Profile is a single-axis degradation-accuracy tradeoff curve.
	Profile = profile.Profile
	// Hypercube is the full (f, p, c) bound grid.
	Hypercube = profile.Hypercube
	// SweepOptions configures a fraction-axis profile sweep.
	SweepOptions = profile.SweepOptions
	// Model is a simulated detector profile.
	Model = detect.Model
	// AdaptiveResult is the outcome of System.ExecuteUntilCtx: adaptive
	// sampling until an error target is met.
	AdaptiveResult = core.AdaptiveResult
	// StreamingEstimator maintains a running answer and bound as sampled
	// frames arrive (online aggregation on Smokescreen bounds).
	StreamingEstimator = estimate.StreamingEstimator
)

// Aggregate functions.
const (
	AVG   = estimate.AVG
	SUM   = estimate.SUM
	COUNT = estimate.COUNT
	MAX   = estimate.MAX
	MIN   = estimate.MIN
	VAR   = estimate.VAR
)

// Object classes.
const (
	Car    = scene.Car
	Person = scene.Person
	Face   = scene.Face
)

// New constructs a Smokescreen system. See the core options WithSeed
// and WithFractionCandidates.
var New = core.New

// System options.
var (
	WithSeed               = core.WithSeed
	WithFractionCandidates = core.WithFractionCandidates
	WithEarlyStop          = core.WithEarlyStop
	// WithParallelism fans profile generation out across a bounded worker
	// pool; profiles stay bit-for-bit identical at any worker count.
	WithParallelism = core.WithParallelism
)

// ParseQuery parses the analytical query language; see the package
// documentation of internal/query for the grammar.
var ParseQuery = query.Parse

// Datasets lists the built-in corpus names.
var Datasets = dataset.Names

// DefaultParams returns the paper's estimator defaults (delta = 0.05,
// r = 0.99).
var DefaultParams = estimate.DefaultParams

// NewStreamingEstimator builds a streaming estimator; anyTime selects the
// uniformly-valid bound schedule required for adaptive stopping.
var NewStreamingEstimator = estimate.NewStreamingEstimator

// Detector model constructors.
var (
	YOLOv4Sim   = detect.YOLOv4Sim
	MaskRCNNSim = detect.MaskRCNNSim
	MTCNNSim    = detect.MTCNNSim
)
