package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// naiveDFT is an O(n^2) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			phi := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Exp(complex(0, phi))
		}
		out[k] = acc
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		x := randSignal(rng, n)
		got := fftTo(nil, x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Fatalf("n=%d: max error %g", n, e)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 16, 64, 128, 512, 1024} {
		x := randSignal(rng, n)
		back := ifftTo(nil, fftTo(nil, x))
		if e := maxErr(back, x); e > 1e-9*float64(n) {
			t.Fatalf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, nRaw uint8) bool {
		n := 1 << (nRaw % 9)
		r := rand.New(rand.NewSource(seed))
		x := randSignal(r, n)
		back := ifftTo(nil, fftTo(nil, x))
		return maxErr(back, x) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 32, 128, 256} {
		x := randSignal(rng, n)
		spec := fftTo(nil, x)
		tEnergy := Energy(x)
		fEnergy := Energy(spec) / float64(n)
		if math.Abs(tEnergy-fEnergy) > 1e-8*tEnergy {
			t.Fatalf("n=%d: Parseval mismatch %g vs %g", n, tEnergy, fEnergy)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	x := randSignal(rng, n)
	y := randSignal(rng, n)
	a, b := complex(1.7, -0.3), complex(-0.5, 2.2)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + b*y[i]
	}
	lhs := fftTo(nil, sum)
	fx, fy := fftTo(nil, x), fftTo(nil, y)
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = a*fx[i] + b*fy[i]
	}
	if e := maxErr(lhs, rhs); e > 1e-8 {
		t.Fatalf("linearity violated: %g", e)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 32)
	x[0] = 1
	for i, v := range fftTo(nil, x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTToneBin(t *testing.T) {
	// A pure tone at bin k concentrates all energy in that bin.
	n := 128
	k := 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*float64(k*i)/float64(n)))
	}
	spec := fftTo(nil, x)
	for i, v := range spec {
		mag := cmplx.Abs(v)
		if i == k {
			if math.Abs(mag-float64(n)) > 1e-6 {
				t.Fatalf("tone bin magnitude %g, want %d", mag, n)
			}
		} else if mag > 1e-6 {
			t.Fatalf("leakage at bin %d: %g", i, mag)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := fftTo(nil, nil); got != nil {
		t.Fatal("fftTo(nil, nil) should be nil")
	}
	got := fftTo(nil, []complex128{3 + 4i})
	if len(got) != 1 || cmplx.Abs(got[0]-(3+4i)) > 1e-15 {
		t.Fatalf("FFT single = %v", got)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fftTo(nil, x)
	}
}

func BenchmarkFFT4096(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fftTo(nil, x)
	}
}
