package a

import "testing"

func TestInside(t *testing.T) {
	if New().inside != 2 {
		t.Fatal("inside")
	}
}
