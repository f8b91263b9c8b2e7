package phy

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"mmtag/internal/channel"
)

func TestDesignEqualizerValidation(t *testing.T) {
	if _, err := DesignEqualizer(nil, 4, 0, 0); err == nil {
		t.Fatal("empty channel must error")
	}
	if _, err := DesignEqualizer([]complex128{1}, 0, 0, 0); err == nil {
		t.Fatal("zero taps must error")
	}
	if _, err := DesignEqualizer([]complex128{1}, 4, 9, 0); err == nil {
		t.Fatal("delay out of range must error")
	}
	if _, err := DesignEqualizer([]complex128{1}, 4, 0, -1); err == nil {
		t.Fatal("negative noise must error")
	}
	if _, err := DesignEqualizer([]complex128{0, 0}, 4, 2, 0); err == nil {
		t.Fatal("zero channel must be singular")
	}
}

// combinedResponse returns conv(h, w), the end-to-end impulse response
// an equalizer achieves — ideally a delayed delta.
func combinedResponse(h, w []complex128) []complex128 {
	out := make([]complex128, len(h)+len(w)-1)
	for i, hv := range h {
		for j, wv := range w {
			out[i+j] += hv * wv
		}
	}
	return out
}

func TestZFEqualizerFlattensChannel(t *testing.T) {
	h := []complex128{1, 0.5, complex(-0.2, 0.1)}
	nTaps := 31
	delay := (len(h) + nTaps) / 2
	w, err := DesignEqualizer(h, nTaps, delay, 0)
	if err != nil {
		t.Fatal(err)
	}
	comb := combinedResponse(h, w)
	for i, v := range comb {
		want := complex128(0)
		if i == delay {
			want = 1
		}
		if cmplx.Abs(v-want) > 0.02 {
			t.Fatalf("combined response tap %d = %v, want %v", i, v, want)
		}
	}
}

func TestMMSERegularizationTamesNoiseGain(t *testing.T) {
	// A channel with a deep spectral null: ZF inverts it with huge
	// taps; MMSE keeps the equalizer energy bounded.
	h := []complex128{1, 0.95}
	energy := func(w []complex128) float64 {
		s := 0.0
		for _, v := range w {
			s += real(v)*real(v) + imag(v)*imag(v)
		}
		return s
	}
	zf, err := DesignEqualizer(h, 21, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	mmse, err := DesignEqualizer(h, 21, 11, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if energy(mmse) >= energy(zf) {
		t.Fatalf("MMSE energy %g should be below ZF %g", energy(mmse), energy(zf))
	}
}

func TestEqualizerEndToEndISI(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := NewQPSK()
	bits := RandomBits(rng, 2000)
	tx := c.Modulate(nil, c.MapBits(nil, bits))
	// Severe two-tap ISI: interference magnitude 0.85 pushes symbols
	// across the QPSK decision boundaries.
	taps := []channel.Tap{{DelaySamples: 0, Gain: 1}, {DelaySamples: 1, Gain: complex(0.8, 0.3)}}
	rx := channel.ApplyTapsTo(nil, tx, taps)
	channel.AWGN(rng, rx, 1e-4)

	// Unequalized slicing fails badly.
	rawErrs := 0
	for i := range tx {
		if c.Nearest(rx[i]) != c.Nearest(tx[i]) {
			rawErrs++
		}
	}
	if rawErrs < len(tx)/20 {
		t.Fatalf("ISI channel too gentle for the test: %d raw errors", rawErrs)
	}

	// Equalized slicing is clean.
	h := []complex128{1, complex(0.8, 0.3)}
	nTaps := 21
	delay := (len(h) + nTaps) / 2
	w, err := DesignEqualizer(h, nTaps, delay, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	eq := EqualizeTo(nil, rx, w, delay)
	eqErrs := 0
	// Skip the filter edges.
	for i := nTaps; i < len(tx)-nTaps; i++ {
		if c.Nearest(eq[i]) != c.Nearest(tx[i]) {
			eqErrs++
		}
	}
	if eqErrs != 0 {
		t.Fatalf("equalized decisions still wrong: %d errors (raw had %d)", eqErrs, rawErrs)
	}
}

func TestEqualizerFromEstimatedCIR(t *testing.T) {
	// The full receiver flow: sound the channel, design the equalizer
	// from the estimate, equalize data.
	rng := rand.New(rand.NewSource(78))
	train := pnTraining(rng, 511)
	taps := []channel.Tap{{DelaySamples: 0, Gain: 1}, {DelaySamples: 2, Gain: 0.6i}}
	c := NewQPSK()
	bits := RandomBits(rng, 1000)
	data := c.Modulate(nil, c.MapBits(nil, bits))
	tx := append(append([]complex128{}, train...), data...)
	rx := channel.ApplyTapsTo(nil, tx, taps)
	channel.AWGN(rng, rx, 1e-5)

	hEst, err := EstimateCIR(rx, train, 6)
	if err != nil {
		t.Fatal(err)
	}
	nTaps := 21
	delay := (len(hEst) + nTaps) / 2
	w, err := DesignEqualizer(hEst, nTaps, delay, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	eq := EqualizeTo(nil, rx, w, delay)
	errs := 0
	for i := nTaps; i < len(data)-nTaps; i++ {
		if c.Nearest(eq[len(train)+i]) != c.Nearest(data[i]) {
			errs++
		}
	}
	if errs != 0 {
		t.Fatalf("sound+equalize flow: %d decision errors", errs)
	}
}
