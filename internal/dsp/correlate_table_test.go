package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// preamblePoints returns n bits of the frame preamble's LFSR
// (x^7 + x^6 + 1 from state 0x5A, as frame.Preamble) mapped onto
// p0/p1: what a tag transmits for the preamble.
func preamblePoints(n int, p0, p1 complex128) []complex128 {
	pts := make([]complex128, n)
	state := byte(0x5A)
	for i := range pts {
		fb := ((state >> 6) ^ (state >> 5)) & 1
		state = (state<<1 | fb) & 0x7F
		pts[i] = p0
		if fb != 0 {
			pts[i] = p1
		}
	}
	return pts
}

// centredPreamble rebuilds the receiver's preamble reference:
// preamblePoints centred by their mean, as ap.NewDemodulator does.
func centredPreamble(n int, p0, p1 complex128) []complex128 {
	pts := preamblePoints(n, p0, p1)
	var mean complex128
	for _, v := range pts {
		mean += v
	}
	mean /= complex(float64(n), 0)
	for i := range pts {
		pts[i] -= mean
	}
	return pts
}

// pickRef returns an m-tap reference drawing every tap from vals, with
// each value used at least once when m allows.
func pickRef(rng *rand.Rand, m int, vals []complex128) []complex128 {
	ref := make([]complex128, m)
	for i := range ref {
		if i < len(vals) {
			ref[i] = vals[i]
		} else {
			ref[i] = vals[rng.Intn(len(vals))]
		}
	}
	rng.Shuffle(m, func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })
	return ref
}

// sameFloatBits fails the test unless got and want match bit for bit,
// signed zeros and infinities included, except that any NaN matches any
// NaN: Go leaves a NaN result's sign and payload unspecified, and the
// compiler's choice of operand order for a commutative add decides
// which input NaN survives (the race build orders them differently).
func sameFloatBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for i := range want {
		g, w := got[i], want[i]
		if !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("%s: lag %d is %v, want %v", what, i, g, w)
		}
	}
}

// specialSignal is randSignal with -0, ±Inf and NaN planted in a few
// real and imaginary parts.
func specialSignal(rng *rand.Rand, n int) []complex128 {
	x := randSignal(rng, n)
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range x {
		if rng.Intn(16) != 0 {
			continue
		}
		s := specials[rng.Intn(len(specials))]
		if rng.Intn(2) == 0 {
			x[i] = complex(s, imag(x[i]))
		} else {
			x[i] = complex(real(x[i]), s)
		}
	}
	return x
}

// The product-table path must reproduce the MAC loop bit for bit (NaN
// payloads aside, see sameFloatBits), for every reference shape it
// takes, every lag count mod 4 (the blocked loop's tail), and inputs
// carrying signed zeros, infinities and NaNs; a reference with too many
// distinct values must fall back to the MAC loop.
func TestCorrKernelTableMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	negZero := math.Copysign(0, -1)
	refs := []struct {
		name  string
		ref   []complex128
		table bool
	}{
		{"1 value", pickRef(rng, 16, []complex128{0.3 - 0.7i}), true},
		{"2 values", pickRef(rng, 31, randSignal(rng, 2)), true},
		{"3 values", pickRef(rng, 40, randSignal(rng, 3)), true},
		{"4 values", pickRef(rng, 63, randSignal(rng, 4)), true},
		{"5 values", pickRef(rng, 63, randSignal(rng, 5)), false},
		{"signed zeros", pickRef(rng, 24, []complex128{0, complex(negZero, 0), complex(0, negZero), 1}), true},
		{"centred QPSK preamble", centredPreamble(63, 1, 1i), true},
		{"BPSK preamble", centredPreamble(63, 1, -1), true},
		{"random", randSignal(rng, 63), false},
	}
	for _, c := range refs {
		kn := NewCorrKernel(c.ref)
		if got := kn.nvals != 0; got != c.table {
			t.Fatalf("%s: table path %v, want %v", c.name, got, c.table)
		}
		m := len(c.ref)
		ar := new(Arena)
		for _, lags := range []int{1, 2, 3, 4, 5, 6, 7, 8, 61, 62, 63, 64, 165, 300, 1001} {
			n := m + lags - 1
			if n*m > directMaxWork {
				continue
			}
			for rep, x := range [][]complex128{randSignal(rng, n), specialSignal(rng, n)} {
				what := fmt.Sprintf("%s, %d lags, input %d", c.name, lags, rep)
				want := make([]complex128, lags)
				correlateDirect(want, x, c.ref)
				got := dirty(lags)
				kn.correlateSmall(got, x)
				sameFloatBits(t, what, got, want)

				xb := NewBatch(2, n)
				out := NewBatch(2, n)
				fillLane(xb, 0, x)
				fillLane(xb, 1, x[:n-1])
				kn.CrossCorrelateBatch(out, xb, ar)
				sameFloatBits(t, what+" batch lane 0", out.Lane(0), want)
				sameFloatBits(t, what+" batch lane 1", out.Lane(1), want[:lags-1])
			}
		}
	}
}

// preambleBatch returns a batch of random n-sample lanes and an output
// batch of the same shape.
func preambleBatch(lanes, n int) (x, out *Batch) {
	rng := rand.New(rand.NewSource(43))
	x = NewBatch(lanes, n)
	out = NewBatch(lanes, n)
	for l := 0; l < lanes; l++ {
		fillLane(x, l, randSignal(rng, n))
	}
	return x, out
}

// BenchmarkCorrKernelPreamble is the waveform tier's preamble search:
// a 4-lane batch of 227-symbol lanes against the centred 63-symbol
// QPSK preamble, all under the FFT threshold.
func BenchmarkCorrKernelPreamble(b *testing.B) {
	kn := NewCorrKernel(centredPreamble(63, 1, 1i))
	x, out := preambleBatch(4, 227)
	ar := new(Arena)
	kn.CrossCorrelateBatch(out, x, ar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.CrossCorrelateBatch(out, x, ar)
	}
}
