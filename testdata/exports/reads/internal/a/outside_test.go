package a_test

import (
	"testing"

	"fix/internal/a"
)

func TestOutside(t *testing.T) {
	if a.New().Outside != 3 {
		t.Fatal("outside")
	}
}
