package a_test

import (
	"testing"

	"fix/internal/a"
)

func TestReadOutside(t *testing.T) {
	var c a.Counter
	c.Bump()
	if c.Read() != 1 {
		t.Fatal("count")
	}
}

func TestBumpOutside(t *testing.T) {
	var c a.Counter
	c.Bump()
}

func TestAll(t *testing.T) { run() }

func run() {
	var c a.Counter
	a.Kept()
	c.Bump()
	_ = c.Read()
}
