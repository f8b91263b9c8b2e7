package phy

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

func TestBERResultRate(t *testing.T) {
	if (BERResult{}).Rate() != 0 {
		t.Fatal("empty result rate must be 0")
	}
	if r := (BERResult{Bits: 1000, Errors: 5}).Rate(); math.Abs(r-0.005) > 1e-15 {
		t.Fatalf("rate %g", r)
	}
}

// TestMeasuredBERMatchesTheory is the heart of experiment E3: the
// Monte-Carlo chain must land on the closed-form AWGN curves.
func TestMeasuredBERMatchesTheory(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type curve struct {
		name   string
		c      *Constellation
		theory func(float64) float64
	}
	qam16, err := NewConstellation("16qam", vanatta.QAM16().States())
	if err != nil {
		t.Fatal(err)
	}
	psk8, err := NewConstellation("8psk", vanatta.PSK8().States())
	if err != nil {
		t.Fatal(err)
	}
	curves := []curve{
		{"bpsk", newBPSK(), rfmath.BERBPSK},
		{"qpsk", NewQPSK(), rfmath.BERQPSK},
		{"ook", newOOK(), rfmath.BEROOK},
		{"8psk", psk8, func(e float64) float64 { return rfmath.BERMPSK(8, e) }},
		{"16qam", qam16, func(e float64) float64 { return rfmath.BERMQAM(16, e) }},
	}
	for _, cv := range curves {
		t.Run(cv.name, func(t *testing.T) {
			for _, ebn0DB := range []float64{4, 7} {
				ebn0 := rfmath.FromDB(ebn0DB)
				want := cv.theory(ebn0)
				// Enough bits for ~2% relative Monte-Carlo error at the
				// expected rates.
				nBits := int(math.Max(200/want, 20000))
				if nBits > 2_000_000 {
					nBits = 2_000_000
				}
				res, err := MeasureBER(cv.c, ebn0, nBits, rng)
				if err != nil {
					t.Fatal(err)
				}
				got := res.Rate()
				if got == 0 {
					t.Fatalf("no errors observed at %g dB (want BER %g)", ebn0DB, want)
				}
				ratio := got / want
				if ratio < 0.6 || ratio > 1.67 {
					t.Fatalf("Eb/N0 %g dB: measured %.3g, theory %.3g (ratio %.2f)",
						ebn0DB, got, want, ratio)
				}
			}
		})
	}
}

// The reference loop rejects an invalid Eb/N0 or bit count
// (TestMeasureBERFastValidation covers the fused body). A third
// generator type is a programming error and panics.
func TestMeasureBERErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := MeasureBER(newBPSK(), 0, 100, rng); err == nil {
		t.Fatal("zero Eb/N0 must error")
	}
	if _, err := MeasureBER(newBPSK(), 1, 0, rng); err == nil {
		t.Fatal("zero bits must error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a generator other than *rand.Rand or *fastrand.Rand must panic")
		}
	}()
	type wrapped struct{ *rand.Rand }
	MeasureBER(newBPSK(), 1, 100, wrapped{rand.New(rand.NewSource(1))})
}

func TestRandomBitsReproducible(t *testing.T) {
	a := RandomBits(rand.New(rand.NewSource(9)), 64)
	b := RandomBits(rand.New(rand.NewSource(9)), 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same bits")
		}
		if a[i] > 1 {
			t.Fatal("bits must be 0/1")
		}
	}
}

func BenchmarkMeasureBERQPSK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := NewQPSK()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureBER(c, 5, 10000, rng); err != nil {
			b.Fatal(err)
		}
	}
}
