package analysis

// Analyzers returns the full smokevet suite in report order. It is the
// one roster: the suppression grammar takes its analyzer names from here.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism, Ctxflow, Atomiccounter,
		Goroleak, Axisreg, Errcontract, Reach,
	}
}
