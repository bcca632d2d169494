package analysis

// All returns the bnecklint analyzer suite in stable order. Each analyzer
// machine-enforces one invariant class the paper's correctness claims rest
// on; DESIGN.md §12 maps analyzer → invariant → prevented failure.
func All() []*Analyzer {
	return []*Analyzer{
		Detrange,
		Walltime,
		Lockorder,
		Eventkey,
		Floatrate,
	}
}
