package phy

import (
	"math/rand"
	"testing"
)

// sliceTestAlphabets collects every structure the fast slicer claims to
// recognize plus shapes it must decline, each exercised against the
// linear scan below.
func sliceTestAlphabets(t *testing.T) map[string]*Constellation {
	t.Helper()
	qam16 := make([]complex128, 0, 16)
	for _, re := range []float64{-3, -1, 1, 3} {
		for _, im := range []float64{-3, -1, 1, 3} {
			qam16 = append(qam16, complex(re, im))
		}
	}
	// Shuffled index order: the grid detector must map cells back to the
	// original point indices, not assume row-major layout.
	shuffled := make([]complex128, len(qam16))
	copy(shuffled, qam16)
	rng := rand.New(rand.NewSource(31))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	out := map[string]*Constellation{
		"bpsk": newBPSK(),
		"qpsk": NewQPSK(), // axis-aligned diamond
		"ook":  newOOK(),
	}
	for name, pts := range map[string][]complex128{
		"qam16":          qam16,
		"qam16-shuffled": shuffled,
		"rotated-qpsk":   {1 + 1i, -1 + 1i, -1 - 1i, 1 - 1i}, // 2x2 grid
		"asymmetric-4":   {0, 1, 2 + 1i, 3i},                 // no structure: scan fallback
		"scaled-diamond": {2, 2i, -2i, -2},
	} {
		c, err := NewConstellation(name, pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = c
	}
	return out
}

func TestNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for name, c := range sliceTestAlphabets(t) {
		// Continuous inputs spanning the alphabet's extent.
		for i := 0; i < 20000; i++ {
			r := complex(rng.NormFloat64()*3, rng.NormFloat64()*3)
			got := c.Nearest(r)
			want := nearestScan(c.points, r)
			if got != want {
				t.Fatalf("%s: Nearest(%v) = %d, scan says %d", name, r, got, want)
			}
		}
		// Exact constellation points decide to themselves (or an exact
		// co-located duplicate, which these alphabets do not have).
		for i, p := range c.points {
			if got := c.Nearest(p); got != i {
				t.Fatalf("%s: Nearest(point %d) = %d", name, i, got)
			}
		}
	}
}

func TestFastSlicerSelection(t *testing.T) {
	byName := sliceTestAlphabets(t)
	for _, name := range []string{"bpsk", "qpsk", "ook", "qam16", "qam16-shuffled", "rotated-qpsk", "scaled-diamond"} {
		if c := byName[name]; c.grid == nil && c.diamond == nil {
			t.Errorf("%s: expected a fast slicer, got scan fallback", name)
		}
	}
	if c := byName["asymmetric-4"]; c.grid != nil || c.diamond != nil {
		t.Error("asymmetric-4: fast slicer accepted an unstructured alphabet")
	}
}

// TestDiamondTieBreak pins the scan's first-minimum rule on the exact
// |re| == |im| boundaries, where two diamond points are equidistant.
func TestDiamondTieBreak(t *testing.T) {
	c := NewQPSK() // points: {1, i, -i, -1}
	for _, r := range []complex128{1 + 1i, 1 - 1i, -1 + 1i, -1 - 1i, 0} {
		got := c.Nearest(r)
		want := nearestScan(c.points, r)
		if got != want {
			t.Fatalf("Nearest(%v) = %d, scan says %d", r, got, want)
		}
	}
}

func BenchmarkNearestQPSK(b *testing.B) {
	c := NewQPSK()
	rng := rand.New(rand.NewSource(1))
	rx := make([]complex128, 1024)
	for i := range rx {
		rx[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range rx {
			c.Nearest(r)
		}
	}
}
