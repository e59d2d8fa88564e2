package main

import "fix/internal/b"

func main() { _ = b.Other() }
