package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// naiveCorrelate is the O(n*m) reference for valid-lag correlation.
func naiveCorrelate(x, ref []complex128) []complex128 {
	n, m := len(x), len(ref)
	if m == 0 || n < m {
		return nil
	}
	out := make([]complex128, n-m+1)
	for k := range out {
		var acc complex128
		for i := 0; i < m; i++ {
			acc += x[k+i] * cmplx.Conj(ref[i])
		}
		out[k] = acc
	}
	return out
}

func TestCrossCorrelateMatchesNaiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randSignal(rng, 60)
	ref := randSignal(rng, 13)
	got := CrossCorrelateTo(nil, x, ref, nil)
	want := naiveCorrelate(x, ref)
	if e := maxErr(got, want); e > 1e-9 {
		t.Fatalf("small correlate error %g", e)
	}
}

func TestCrossCorrelateMatchesNaiveLarge(t *testing.T) {
	// Force the FFT path (n*m > 2^14).
	rng := rand.New(rand.NewSource(11))
	x := randSignal(rng, 600)
	ref := randSignal(rng, 100)
	got := CrossCorrelateTo(nil, x, ref, nil)
	want := naiveCorrelate(x, ref)
	if e := maxErr(got, want); e > 1e-6 {
		t.Fatalf("large correlate error %g", e)
	}
}

func TestCrossCorrelateEdgeCases(t *testing.T) {
	if CrossCorrelateTo(nil, nil, nil, nil) != nil {
		t.Fatal("empty inputs must return nil")
	}
	if CrossCorrelateTo(nil, []complex128{1}, []complex128{1, 2}, nil) != nil {
		t.Fatal("ref longer than x must return nil")
	}
	// x == ref: single lag equal to the energy.
	x := []complex128{1 + 1i, 2, -3i}
	r := CrossCorrelateTo(nil, x, x, nil)
	if len(r) != 1 {
		t.Fatalf("lags = %d, want 1", len(r))
	}
	if math.Abs(real(r[0])-Energy(x)) > 1e-12 || math.Abs(imag(r[0])) > 1e-12 {
		t.Fatalf("self correlation %v, want %g", r[0], Energy(x))
	}
}

func BenchmarkCrossCorrelateFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 4096)
	ref := randSignal(rng, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CrossCorrelateTo(nil, x, ref, nil)
	}
}
