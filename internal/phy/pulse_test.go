package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmtag/internal/dsp"
)

func TestRRCTapsValidation(t *testing.T) {
	if _, err := RRCTaps(-0.1, 8, 6); err == nil {
		t.Fatal("negative beta must error")
	}
	if _, err := RRCTaps(1.1, 8, 6); err == nil {
		t.Fatal("beta > 1 must error")
	}
	if _, err := RRCTaps(0.3, 1, 6); err == nil {
		t.Fatal("sps 1 must error")
	}
	if _, err := RRCTaps(0.3, 8, 0); err == nil {
		t.Fatal("zero span must error")
	}
}

func TestRRCTapsProperties(t *testing.T) {
	for _, beta := range []float64{0, 0.25, 0.5, 1} {
		taps, err := RRCTaps(beta, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(taps) != 65 {
			t.Fatalf("tap count %d, want 65", len(taps))
		}
		// Unit energy.
		e := 0.0
		for _, v := range taps {
			e += v * v
		}
		if math.Abs(e-1) > 1e-12 {
			t.Fatalf("beta %g: energy %g", beta, e)
		}
		// Symmetric.
		for i := 0; i < len(taps)/2; i++ {
			if math.Abs(taps[i]-taps[len(taps)-1-i]) > 1e-12 {
				t.Fatalf("beta %g: asymmetric taps", beta)
			}
		}
		// Peak at centre.
		mid := len(taps) / 2
		for i, v := range taps {
			if v > taps[mid]+1e-12 {
				t.Fatalf("beta %g: tap %d exceeds centre", beta, i)
			}
		}
	}
}

func TestRRCSingularPoints(t *testing.T) {
	// t = 1/(4 beta) hits the removable singularity; must be finite.
	v := rrc(1.0/(4*0.25), 0.25)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("singular point value %g", v)
	}
	// Near-singular evaluation must be continuous with the exact point.
	near := rrc(1.0/(4*0.25)+1e-7, 0.25)
	if math.Abs(v-near) > 1e-3 {
		t.Fatalf("discontinuity at singular point: %g vs %g", v, near)
	}
}

// TestRRCCascadeIsISIFree verifies the core pulse-shaping property: the
// TX RRC convolved with the RX RRC forms a raised cosine, which is zero
// at all nonzero symbol-spaced lags (no inter-symbol interference).
func TestRRCCascadeIsISIFree(t *testing.T) {
	sps := 8
	s, err := NewShaper(0.35, sps, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Impulse through shape + matched filter.
	symbols := make([]complex128, 21)
	symbols[10] = 1
	shaped := s.ShapeTo(nil, symbols, nil)
	matched := s.MatchedFilterTo(nil, shaped)
	centre := 10*sps + 2*s.Delay()
	peak := real(matched[centre])
	if math.Abs(peak-1) > 0.01 {
		t.Fatalf("cascade peak %g, want ~1", peak)
	}
	for k := 1; k <= 8; k++ {
		for _, idx := range []int{centre + k*sps, centre - k*sps} {
			if v := cmplx.Abs(matched[idx]); v > 0.02 {
				t.Fatalf("ISI at lag %d: %g", k, v)
			}
		}
	}
}

func TestShaperEndToEndQPSK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewQPSK()
	s, _ := NewShaper(0.35, 8, 10)
	bits := RandomBits(rng, 200)
	syms := c.MapBits(nil, bits)
	tx := c.Modulate(nil, syms)
	wave := s.ShapeTo(nil, tx, nil)
	matched := s.MatchedFilterTo(nil, wave)
	decisions := s.SampleTo(nil, matched, 2*s.Delay(), len(syms))
	if len(decisions) != len(syms) {
		t.Fatalf("got %d decisions, want %d", len(decisions), len(syms))
	}
	rxBits := c.UnmapBits(nil, c.Slice(nil, decisions))
	errs, _ := BitErrors(bits, rxBits[:len(bits)])
	if errs != 0 {
		t.Fatalf("noiseless shaped link has %d bit errors", errs)
	}
}

func TestShaperOccupiedBandwidth(t *testing.T) {
	// A beta=0.35 shaped QPSK signal at sps=8 occupies ~(1+beta)/2T =
	// 0.084 of the sample rate each side; power beyond 0.1*fs must be
	// tiny.
	rng := rand.New(rand.NewSource(6))
	c := NewQPSK()
	s, _ := NewShaper(0.35, 8, 10)
	bits := RandomBits(rng, 2048)
	wave := s.ShapeTo(nil, c.Modulate(nil, c.MapBits(nil, bits)), nil)
	spec := dsp.Periodogram(wave, dsp.Hann)
	n := len(spec)
	var inBand, outBand float64
	for i, p := range spec {
		f := float64(i) / float64(n)
		if f > 0.5 {
			f -= 1
		}
		if math.Abs(f) <= 0.1 {
			inBand += p
		} else {
			outBand += p
		}
	}
	if outBand/inBand > 1e-3 {
		t.Fatalf("out-of-band power fraction %g too high", outBand/inBand)
	}
}

func TestShaperSampleBounds(t *testing.T) {
	s, _ := NewShaper(0.35, 4, 4)
	x := make([]complex128, 10)
	// Asking for more symbols than fit truncates rather than panics.
	got := s.SampleTo(nil, x, 8, 100)
	if len(got) != 1 {
		t.Fatalf("bounded sample count %d, want 1", len(got))
	}
	if got := s.SampleTo(nil, x, -1, 5); len(got) != 0 {
		t.Fatal("negative start must yield nothing")
	}
}
