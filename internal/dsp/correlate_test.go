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

func TestPeakIndex(t *testing.T) {
	x := []complex128{1, -5i, 2}
	i, m := PeakIndex(x)
	if i != 1 || math.Abs(m-5) > 1e-15 {
		t.Fatalf("peak (%d, %g)", i, m)
	}
	i, m = PeakIndex(nil)
	if i != -1 || m != 0 {
		t.Fatal("empty peak must be (-1, 0)")
	}
}

func TestNormalizedPeakFindsEmbeddedPreamble(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pre := randSignal(rng, 31)
	// Bury the preamble at offset 100 in noise 20 dB below it.
	x := randSignal(rng, 256)
	Scale(x, 0.1)
	for i, v := range pre {
		x[100+i] += v
	}
	lag, score := NormalizedPeak(x, pre, nil)
	if lag != 100 {
		t.Fatalf("preamble found at %d, want 100", lag)
	}
	if score < 0.9 {
		t.Fatalf("peak score %g, want > 0.9", score)
	}
}

func TestNormalizedPeakScoreBounds(t *testing.T) {
	// Perfect match scores 1.
	rng := rand.New(rand.NewSource(13))
	x := randSignal(rng, 64)
	lag, score := NormalizedPeak(x, x, nil)
	if lag != 0 || math.Abs(score-1) > 1e-9 {
		t.Fatalf("self peak (%d, %g)", lag, score)
	}
	// Degenerate reference.
	if lag, score := NormalizedPeak(x, make([]complex128, 8), nil); lag != -1 || score != 0 {
		t.Fatal("zero-energy ref must return (-1, 0)")
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randSignal(rng, 128)
	spec := FFTTo(nil, x)
	for _, k := range []int{0, 1, 17, 64, 127} {
		g := Goertzel(x, float64(k)/128)
		if cmplx.Abs(g-spec[k]) > 1e-8 {
			t.Fatalf("bin %d: goertzel %v vs fft %v", k, g, spec[k])
		}
	}
}

func TestGoertzelPowerToneDetection(t *testing.T) {
	// The node-side tone detector: power ~1 when the tone is present,
	// ~0 when absent.
	n := 256
	f := 0.1
	present := Tone(f, 1, n, 0.4)
	if p := GoertzelPower(present, f); math.Abs(p-1) > 1e-9 {
		t.Fatalf("present power %g", p)
	}
	absent := Tone(0.3, 1, n, 0)
	if p := GoertzelPower(absent, f); p > 1e-3 {
		t.Fatalf("absent power %g", p)
	}
	if GoertzelPower(nil, f) != 0 {
		t.Fatal("empty power must be 0")
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

func BenchmarkGoertzel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Goertzel(x, 0.1)
	}
}
