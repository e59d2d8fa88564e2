package main

import "fix/internal/a"

func main() {
	_, _ = a.Encode(1)
	_ = a.Linked(1, 2)
	_ = a.Moved(nil, 0)
}
