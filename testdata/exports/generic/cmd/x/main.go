package main

import "fix/internal/q"

func main() {
	var x q.Queue[int]
	x.Put(1)
	_ = x.Get()
}
