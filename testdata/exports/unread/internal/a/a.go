package a

// T has one field per way of never being read.
type T struct {
	unused int // nothing names it
	set    int // only assigned
	bumped int // only incremented
	keyed  int // only a composite-literal key
	used   int
}

// New returns a T.
func New() *T {
	t := &T{keyed: 1}
	t.set = 2
	t.bumped++
	return t
}

// Used reads the one field that is read.
func (t *T) Used() int { return t.used }
