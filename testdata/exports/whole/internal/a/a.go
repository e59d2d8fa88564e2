package a

import "encoding/json"

// Tagged is read by encoding/json.
type Tagged struct {
	N int `json:"n"`
}

// key is a map key.
type key struct{ from, to int }

// ref is compared with !=.
type ref struct {
	p   *int
	gen int
}

// Encode writes n as JSON.
func Encode(n int) ([]byte, error) { return json.Marshal(Tagged{N: n}) }

// Linked reports whether from links to to.
func Linked(from, to int) bool {
	links := map[key]bool{{1, 2}: true}
	return links[key{from, to}]
}

// Moved reports whether a reference changed.
func Moved(p *int, gen int) bool {
	return ref{p, gen} != ref{}
}
