package interp

// Internals the external tests steer by.

// Entries reports, per rank, how many entries the skeleton stores and how
// many operations they stand for.
func (s *Skeleton) Entries() (stored, logical []int) {
	for r := range s.ranks {
		stored = append(stored, len(s.ranks[r].entries))
		logical = append(logical, int(s.ranks[r].logical()))
	}
	return stored, logical
}
