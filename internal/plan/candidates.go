package plan

import (
	"smokescreen/internal/detect"
	"smokescreen/internal/scene"
)

// This file implements the paper's intervention-candidate design
// (Section 3.3.2): sample fractions at 1% intervals, ten uniformly spaced
// frame resolutions, and every combination of possibly sensitive classes.
// It moved here from internal/degrade because candidate enumeration is
// planning — the settings grid is the raw material every plan is built
// from — while degrade keeps the intervention semantics (Setting, Apply).

// CandidateFractions returns sample fractions from step to maxFraction at
// the given interval (the paper uses 1% steps). The result is ascending so
// profile generation can reuse low-rate model outputs at higher rates.
func CandidateFractions(step, maxFraction float64) []float64 {
	if step <= 0 || maxFraction <= 0 {
		return nil
	}
	var out []float64
	for k := 1; ; k++ {
		f := step * float64(k)
		if f > maxFraction+1e-12 {
			break
		}
		out = append(out, f)
	}
	return out
}

// CandidateResolutions returns the model's ten uniformly generated frame
// resolutions, loosest (native) first.
func CandidateResolutions(m *detect.Model) []int {
	return m.Resolutions(10)
}

// ClassCombos returns every combination of the possibly sensitive classes
// ("person" and "face"), loosest (no removal) first.
func ClassCombos() [][]scene.Class {
	return [][]scene.Class{
		nil,
		{scene.Face},
		{scene.Person},
		{scene.Person, scene.Face},
	}
}
