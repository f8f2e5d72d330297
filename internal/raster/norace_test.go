//go:build !race

package raster

// raceEnabled is the no-race-detector default; see race_test.go.
const raceEnabled = false
