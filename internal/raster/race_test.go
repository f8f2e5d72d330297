//go:build race

package raster

// raceEnabled relaxes the SIMD bodies' NaN-payload checks under the race
// detector; see simdSame.
const raceEnabled = true
