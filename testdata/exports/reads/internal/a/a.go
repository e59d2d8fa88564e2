package a

// T has one field per place that reads it.
type T struct {
	Other   int // read by another package
	inside  int // read only by an in-package test
	Outside int // read only by an external test package
}

// New returns a T.
func New() T { return T{Other: 1, inside: 2, Outside: 3} }
