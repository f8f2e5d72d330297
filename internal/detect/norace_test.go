//go:build !race

package detect

// raceEnabled is the no-race-detector default; see race_test.go.
const raceEnabled = false
