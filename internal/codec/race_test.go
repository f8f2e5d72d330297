//go:build race

package codec

// raceEnabled skips the steady-state allocation pins when the race detector
// is on: under -race sync.Pool deliberately drops a share of what is Put,
// so "steady state" still builds fresh DEFLATE state now and then.
const raceEnabled = true
