//go:build race

package detect

// raceEnabled thins the single-goroutine differential sweeps when the race
// detector is on: instrumentation makes the float kernels ~20x slower and
// has nothing to observe in them (the concurrent presence paths are raced
// in internal/outputs).
const raceEnabled = true
