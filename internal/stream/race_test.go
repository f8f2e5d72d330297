//go:build race

package stream

// raceEnabled skips TestRandomOnlyWindowsAreSound when the race detector
// is on: its cost is single-goroutine native-resolution detection, which
// instrumentation makes ~10x slower and has nothing to observe in.
const raceEnabled = true
