package main

import "fix/internal/a"

func main() { _ = a.Total() }
