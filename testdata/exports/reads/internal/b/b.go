package b

import "fix/internal/a"

// Other reads a.T.Other and the maps of a.T.
func Other() int {
	t := a.New()
	n := t.Other + t.Indexed[1] + len(t.Counted)
	for k := range t.Ranged {
		n += k
	}
	return n
}
