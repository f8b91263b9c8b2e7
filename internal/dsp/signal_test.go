package dsp

import (
	"math"
	"testing"
)

func TestEnergy(t *testing.T) {
	x := []complex128{3 + 4i, 3 + 4i} // |x|^2 = 25
	if e := Energy(x); math.Abs(e-50) > 1e-12 {
		t.Fatalf("Energy %g", e)
	}
	if Energy(nil) != 0 {
		t.Fatal("empty energy must be 0")
	}
}
