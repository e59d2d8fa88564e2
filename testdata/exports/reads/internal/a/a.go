package a

// T has one field per place that reads it.
type T struct {
	Other   int // read by another package
	inside  int // read only by an in-package test
	Outside int // read only by an external test package

	// Maps stored into, deleted from and compared with nil, and read
	// once each by another package.
	Indexed map[int]int // by an index on the right
	Ranged  map[int]int // by a range
	Counted map[int]int // by len
}

// New returns a T.
func New() T {
	t := T{Other: 1, inside: 2, Outside: 3}
	t.Indexed = map[int]int{}
	t.Ranged = map[int]int{}
	t.Counted = map[int]int{}
	t.Indexed[1] = 1
	t.Ranged[1] += 1
	t.Counted[1]++
	delete(t.Indexed, 2)
	if t.Ranged == nil || t.Counted != nil {
		return t
	}
	return t
}
