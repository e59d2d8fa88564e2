package a

import "testing"

func TestKept(t *testing.T) { Kept() }

func TestReadInside(t *testing.T) {
	var c Counter
	if c.Read() != 0 {
		t.Fatal("count")
	}
}
