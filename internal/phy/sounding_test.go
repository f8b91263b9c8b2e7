package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmtag/internal/channel"
)

// pnTraining returns a random-BPSK training sequence with good
// autocorrelation.
func pnTraining(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(float64(rng.Intn(2)*2-1), 0)
	}
	return out
}

func TestEstimateCIRRecoversKnownTaps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	train := pnTraining(rng, 1023)
	taps := []channel.Tap{
		{DelaySamples: 0, Gain: 1},
		{DelaySamples: 3, Gain: complex(0, 0.5)},
		{DelaySamples: 7, Gain: complex(-0.25, 0.1)},
	}
	// Append a tail so delayed copies fully overlap the correlator.
	tx := append(append([]complex128{}, train...), make([]complex128, 16)...)
	rx := channel.ApplyTapsTo(nil, tx, taps)
	channel.AWGN(rng, rx, 1e-4)

	h, err := EstimateCIR(rx, train, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range taps {
		if d := cmplx.Abs(h[tp.DelaySamples] - tp.Gain); d > 0.08 {
			t.Fatalf("tap %d estimate %v, want %v (err %g)",
				tp.DelaySamples, h[tp.DelaySamples], tp.Gain, d)
		}
	}
	// Non-tap lags stay near zero.
	for _, k := range []int{1, 5, 10} {
		if cmplx.Abs(h[k]) > 0.08 {
			t.Fatalf("ghost tap at %d: %v", k, h[k])
		}
	}
}

func TestEstimateCIRValidation(t *testing.T) {
	if _, err := EstimateCIR(nil, nil, 4); err == nil {
		t.Fatal("empty training must error")
	}
	if _, err := EstimateCIR(make([]complex128, 10), make([]complex128, 8), 0); err == nil {
		t.Fatal("zero maxLag must error")
	}
	if _, err := EstimateCIR(make([]complex128, 8), make([]complex128, 8), 4); err == nil {
		t.Fatal("short rx must error")
	}
	if _, err := EstimateCIR(make([]complex128, 20), make([]complex128, 8), 4); err == nil {
		t.Fatal("zero-energy training must error")
	}
}

func TestEstimateCIRWithOffsetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	train := pnTraining(rng, 63)
	h := []complex128{complex(0.003, 0.0005), complex(0.002, -0.001)}
	offset := complex(0.7, 0.25)
	rx := make([]complex128, len(train))
	for n := range rx {
		rx[n] = offset
		for k, hv := range h {
			if n-k >= 0 {
				rx[n] += hv * train[n-k]
			}
		}
	}
	got, c, err := EstimateCIRWithOffset(rx, train, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(c-offset) > 1e-9 {
		t.Fatalf("offset %v, want %v", c, offset)
	}
	for k := range h {
		if cmplx.Abs(got[k]-h[k]) > 1e-9 {
			t.Fatalf("tap %d: %v, want %v", k, got[k], h[k])
		}
	}
}

func TestEstimateCIRWithOffsetValidation(t *testing.T) {
	tr := make([]complex128, 20)
	for i := range tr {
		tr[i] = complex(float64(i%2*2-1), 0)
	}
	if _, _, err := EstimateCIRWithOffset(nil, nil, 2); err == nil {
		t.Fatal("empty training must error")
	}
	if _, _, err := EstimateCIRWithOffset(make([]complex128, 20), tr, 0); err == nil {
		t.Fatal("zero maxLag must error")
	}
	if _, _, err := EstimateCIRWithOffset(make([]complex128, 20), tr[:4], 2); err == nil {
		t.Fatal("too-short training must error")
	}
	if _, _, err := EstimateCIRWithOffset(make([]complex128, 4), tr, 2); err == nil {
		t.Fatal("short rx must error")
	}
}

func TestPowerDelayProfile(t *testing.T) {
	pdp := PowerDelayProfile([]complex128{3 + 4i, 0, 1})
	if math.Abs(pdp[0]-25) > 1e-12 || pdp[1] != 0 || pdp[2] != 1 {
		t.Fatalf("PDP %v", pdp)
	}
}

func TestRMSDelaySpread(t *testing.T) {
	fs := 100e6 // 10 ns per sample
	// Single tap: zero spread.
	s, err := RMSDelaySpread([]complex128{1}, fs)
	if err != nil || s != 0 {
		t.Fatalf("single-tap spread %g, %v", s, err)
	}
	// Two equal taps 4 samples apart: spread = 2 samples = 20 ns.
	h := make([]complex128, 5)
	h[0], h[4] = 1, 1
	s, err = RMSDelaySpread(h, fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-20e-9) > 1e-12 {
		t.Fatalf("spread %g, want 20 ns", s)
	}
	// Errors.
	if _, err := RMSDelaySpread(h, 0); err == nil {
		t.Fatal("zero sample rate must error")
	}
	if _, err := RMSDelaySpread(make([]complex128, 3), fs); err == nil {
		t.Fatal("all-zero CIR must error")
	}
}

func TestSoundingEndToEndRician(t *testing.T) {
	// Full loop: draw a Rician profile, sound it, verify the LOS tap
	// dominates and the delay spread is physically small.
	rng := rand.New(rand.NewSource(42))
	taps, err := channel.RicianTaps(rng, 10, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	train := pnTraining(rng, 511)
	tx := append(append([]complex128{}, train...), make([]complex128, 16)...)
	rx := channel.ApplyTapsTo(nil, tx, taps)
	channel.AWGN(rng, rx, 1e-5)
	h, err := EstimateCIR(rx, train, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h {
		if cmplx.Abs(v) > cmplx.Abs(h[0]) {
			t.Fatalf("LOS tap not dominant (tap %d is stronger)", i)
		}
	}
	if g := h[0]; cmplx.Abs(g-1) > 0.1 {
		t.Fatalf("LOS gain %v, want ~1", g)
	}
	spread, err := RMSDelaySpread(h, 80e6)
	if err != nil {
		t.Fatal(err)
	}
	// K=10 Rician: spread well under a symbol at 10 Msym/s.
	if spread > 50e-9 {
		t.Fatalf("delay spread %g s implausibly large", spread)
	}
}
