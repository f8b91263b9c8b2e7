package phy

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

// TestKernelsZeroAlloc pins the zero-allocation contract of the
// equalizer and gain-correction *To kernels: once warm, a call with a
// dst of enough capacity allocates nothing.
func TestKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(31))
	syms := make([]complex128, 256)
	for i := range syms {
		syms[i] = complex(float64(rng.Intn(2)*2-1), float64(rng.Intn(2)*2-1))
	}
	zeroAlloc := func(name string, f func()) {
		t.Helper()
		f() // warm plans, spectra and arena free lists
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, allocs)
		}
	}
	w := []complex128{0.1, 1, -0.2i, 0.05}
	eq := make([]complex128, len(syms))
	zeroAlloc("EqualizeTo", func() { EqualizeTo(eq, syms, w, 1) })
	zeroAlloc("ScaleRotateTo", func() { ScaleRotateTo(eq, syms, 0.5-0.5i) })
}
