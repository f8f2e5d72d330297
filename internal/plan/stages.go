package plan

import (
	"sync/atomic"
	"time"
)

// Cumulative per-stage accounting for the plan/execute pipeline. The
// executor (internal/profile) attributes wall time to the three stages —
// planning (enumeration, permutations, presence scans), detection
// (materialising deduplicated units in the column store), and estimation
// (computing bounds from stored columns) — and the daemon's /metrics and
// the benchmarks read the totals. Everything is atomic: stages run inside
// worker pools.
var (
	planNS     atomic.Int64
	detectNS   atomic.Int64
	estimateNS atomic.Int64

	tasksPlanned     atomic.Int64
	unitsPlanned     atomic.Int64
	dedupSavedFrames atomic.Int64
)

// stageTimer starts a wall-clock span and returns the stop function that
// credits the elapsed nanoseconds to c. These two reads are the
// generation pipeline's only sanctioned wall-clock access: stage
// accounting feeds /metrics and the benchmark's reports, never
// profile bytes, which is what makes the determinism suppressions below
// sound. Everything else in the generation paths is flagged by the
// smokevet determinism analyzer.
func stageTimer(c *atomic.Int64) func() {
	t0 := time.Now() //smokevet:ignore determinism: stage accounting only; durations feed /metrics and benchmark reports, never profile bytes
	return func() {
		c.Add(int64(time.Since(t0))) //smokevet:ignore determinism: duration accounting only, never profile bytes
	}
}

// PlanTimer starts a span attributed to the plan stage; call the returned
// stop function when the span ends (or defer it).
func PlanTimer() func() { return stageTimer(&planNS) }

// DetectTimer starts a span attributed to the detect stage.
func DetectTimer() func() { return stageTimer(&detectNS) }

// EstimateTimer starts a span attributed to the estimate stage.
func EstimateTimer() func() { return stageTimer(&estimateNS) }

// StageStats is a snapshot of the pipeline's cumulative stage accounting.
type StageStats struct {
	// PlanNS/DetectNS/EstimateNS are cumulative wall nanoseconds spent in
	// each stage. Stages inside concurrent cells overlap, so these measure
	// attributed work, not elapsed time.
	PlanNS     int64
	DetectNS   int64
	EstimateNS int64
	// Tasks counts planned profile-point evaluations; Units counts
	// deduplicated physical work units; DedupSavedFrames counts frame
	// evaluations the plan-level dedup avoided (requested minus unique).
	Tasks            int64
	Units            int64
	DedupSavedFrames int64
}

// Stages snapshots the cumulative stage counters.
func Stages() StageStats {
	return StageStats{
		PlanNS:           planNS.Load(),
		DetectNS:         detectNS.Load(),
		EstimateNS:       estimateNS.Load(),
		Tasks:            tasksPlanned.Load(),
		Units:            unitsPlanned.Load(),
		DedupSavedFrames: dedupSavedFrames.Load(),
	}
}
