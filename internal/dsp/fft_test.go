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
	// Power-of-two and awkward (prime, composite) lengths.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 64, 100, 127, 128, 240} {
		x := randSignal(rng, n)
		got := FFTTo(nil, x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Fatalf("n=%d: max error %g", n, e)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 13, 64, 100, 257, 1024} {
		x := randSignal(rng, n)
		back := IFFTTo(nil, FFTTo(nil, x))
		if e := maxErr(back, x); e > 1e-9*float64(n) {
			t.Fatalf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		x := randSignal(r, n)
		back := IFFTTo(nil, FFTTo(nil, x))
		return maxErr(back, x) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 33, 128, 250} {
		x := randSignal(rng, n)
		spec := FFTTo(nil, x)
		tEnergy := Energy(x)
		fEnergy := Energy(spec) / float64(n)
		if math.Abs(tEnergy-fEnergy) > 1e-8*tEnergy {
			t.Fatalf("n=%d: Parseval mismatch %g vs %g", n, tEnergy, fEnergy)
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 96
	x := randSignal(rng, n)
	y := randSignal(rng, n)
	a, b := complex(1.7, -0.3), complex(-0.5, 2.2)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + b*y[i]
	}
	lhs := FFTTo(nil, sum)
	fx, fy := FFTTo(nil, x), FFTTo(nil, y)
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
	for i, v := range FFTTo(nil, x) {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTToneBin(t *testing.T) {
	// A pure tone at bin k concentrates all energy in that bin.
	n := 128
	k := 5
	x := Tone(float64(k)/float64(n), 1, n, 0)
	spec := FFTTo(nil, x)
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
	if got := FFTTo(nil, nil); got != nil {
		t.Fatal("FFTTo(nil, nil) should be nil")
	}
	got := FFTTo(nil, []complex128{3 + 4i})
	if len(got) != 1 || cmplx.Abs(got[0]-(3+4i)) > 1e-15 {
		t.Fatalf("FFT single = %v", got)
	}
}

func TestFFTShift(t *testing.T) {
	x := []complex128{0, 1, 2, 3}
	s := FFTShift(x)
	want := []complex128{2, 3, 0, 1}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("shift even: got %v want %v", s, want)
		}
	}
	x = []complex128{0, 1, 2, 3, 4}
	s = FFTShift(x)
	want = []complex128{3, 4, 0, 1, 2}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("shift odd: got %v want %v", s, want)
		}
	}
}

func TestFFTFreqs(t *testing.T) {
	f := FFTFreqs(4, 1000)
	want := []float64{0, 250, -500, -250}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-9 {
			t.Fatalf("freqs got %v want %v", f, want)
		}
	}
	f = FFTFreqs(5, 1000)
	want = []float64{0, 200, 400, -400, -200}
	for i := range want {
		if math.Abs(f[i]-want[i]) > 1e-9 {
			t.Fatalf("freqs odd got %v want %v", f, want)
		}
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

func TestFFTRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 50)
	c := make([]complex128, 50)
	for i := range x {
		x[i] = rng.NormFloat64()
		c[i] = complex(x[i], 0)
	}
	if e := maxErr(FFTReal(x), FFTTo(nil, c)); e > 1e-10 {
		t.Fatalf("FFTReal mismatch %g", e)
	}
}

func TestFFTRealConjugateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := FFTReal(x)
	n := len(spec)
	for k := 1; k < n; k++ {
		if cmplx.Abs(spec[k]-cmplx.Conj(spec[n-k])) > 1e-9 {
			t.Fatalf("conjugate symmetry violated at bin %d", k)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTTo(nil, x)
	}
}

func BenchmarkFFT4096(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTTo(nil, x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTTo(nil, x)
	}
}
