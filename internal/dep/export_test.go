package dep

// ObservePairs routes every pair query to f until restore is called.
func ObservePairs(f func(r1, r2 *Ref, dirs []Direction, got Feasibility)) (restore func()) {
	prev := observePair
	observePair = f
	return func() { observePair = prev }
}

// ReferenceTestDirection answers a pair query on the reference solver.
func ReferenceTestDirection(r1, r2 *Ref, dirs []Direction) Feasibility {
	return refTestDirection(r1, r2, dirs)
}
