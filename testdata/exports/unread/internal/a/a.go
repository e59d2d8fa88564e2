package a

// T has one field per way of never being read.
type T struct {
	unused    int         // nothing names it
	set       int         // only assigned
	bumped    int         // only incremented
	keyed     int         // only a composite-literal key
	stored    map[int]int // only made and stored into
	added     map[int]int // only op-assigned into
	counted   map[int]int // only incremented in place
	deleted   map[int]int // only deleted from
	nilTested map[int]int // only compared with nil
	used      int
}

// New returns a T.
func New() *T {
	t := &T{keyed: 1}
	t.set = 2
	t.bumped++
	t.stored = map[int]int{}
	t.stored[1] = 1
	t.added = map[int]int{}
	t.added[1] += 2
	t.counted = map[int]int{}
	t.counted[1]--
	delete(t.deleted, 1)
	if t.nilTested == nil || nil != (t.nilTested) {
		t.nilTested = map[int]int{}
	}
	return t
}

// Used reads the one field that is read.
func (t *T) Used() int { return t.used }
