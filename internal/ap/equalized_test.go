package ap

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mmtag/internal/channel"
	"mmtag/internal/dsp"
	"mmtag/internal/frame"
	"mmtag/internal/phy"
	"mmtag/internal/vanatta"
)

// multipathUplink builds an uplink waveform and passes it through a
// symbol-spaced two-ray channel: the echo arrives exactly one symbol
// late, creating resolvable ISI at the symbol level.
func multipathUplink(t *testing.T, payload []byte, sps int, echoGain complex128,
	rng *rand.Rand) ([]complex128, *Demodulator) {
	t.Helper()
	set := vanatta.BPSK()
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		t.Fatal(err)
	}
	dem, err := NewDemodulator(c, 63, frame.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &frame.Frame{Type: frame.TypeData, TagID: 9, Payload: payload}
	bits, err := f.EncodeBits(frame.Options{})
	if err != nil {
		t.Fatal(err)
	}
	symbols := append(dem.PreambleSymbolIndices(), c.MapBits(nil, bits)...)
	mod, err := vanatta.NewModulator(set, 10e6, 10e6*float64(sps), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	wave := mod.Waveform(nil, symbols)
	// Two-ray multipath: a one-symbol-late echo.
	wave = channel.ApplyTapsTo(nil, wave, []channel.Tap{
		{DelaySamples: 0, Gain: 1},
		{DelaySamples: sps, Gain: echoGain},
	})
	for i := range wave {
		wave[i] = wave[i]*0.003 + complex(0.7, 0.25)
	}
	channel.AWGN(rng, wave, 1e-9)
	return wave, dem
}

func TestEqualizedDemodRecoversISIChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	payload := []byte("multipath uplink payload for the equalized receiver")
	// A strong one-symbol echo (0.85 relative) that breaks the one-tap
	// receiver.
	wave, dem := multipathUplink(t, payload, 8, complex(0.8, 0.3), rng)

	plain := dem.Demodulate(wave, 8)
	if plain.OK() {
		t.Fatal("one-tap receiver should fail on this ISI channel")
	}
	eq := dem.DemodulateEqualized(wave, 8, 4)
	if !eq.OK() {
		t.Fatalf("equalized receiver failed: %v (score %.2f, EVM %.3f)",
			eq.Err, eq.SyncScore, eq.EVM)
	}
	if !bytes.Equal(eq.Frame.Payload, payload) || eq.Frame.TagID != 9 {
		t.Fatal("equalized frame corrupted")
	}
}

func TestEqualizedDemodMatchesPlainOnFlatChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	payload := []byte("flat channel sanity")
	wave, dem := multipathUplink(t, payload, 8, 0, rng) // no echo
	plain := dem.Demodulate(wave, 8)
	eq := dem.DemodulateEqualized(wave, 8, 4)
	if !plain.OK() || !eq.OK() {
		t.Fatalf("flat channel: plain %v, equalized %v", plain.Err, eq.Err)
	}
	if !bytes.Equal(plain.Frame.Payload, eq.Frame.Payload) {
		t.Fatal("flat-channel outputs differ")
	}
	// The equalizer should not make the constellation materially worse.
	if eq.EVM > plain.EVM*3+0.02 {
		t.Fatalf("equalized EVM %g vs plain %g", eq.EVM, plain.EVM)
	}
}

func TestEqualizedDemodValidation(t *testing.T) {
	c, _ := phy.NewConstellation("bpsk", vanatta.BPSK().States())
	dem, _ := NewDemodulator(c, 63, frame.Options{})
	if res := dem.DemodulateEqualized(make([]complex128, 100), 8, 0); res.OK() || res.Err == nil {
		t.Fatal("zero channel taps must fail")
	}
	if res := dem.DemodulateEqualized(make([]complex128, 10), 8, 4); res.OK() || res.Err == nil {
		t.Fatal("short waveform must fail")
	}
	// Pure static offset: no preamble.
	flat := make([]complex128, 8192)
	for i := range flat {
		flat[i] = complex(0.5, 0.1)
	}
	if res := dem.DemodulateEqualized(flat, 8, 4); res.OK() {
		t.Fatal("must not decode from a constant waveform")
	}
}

// DemodulateEqualized must return exactly what the same pipeline
// returns on the full-correlation oracle scorer, on ISI and flat
// channels and on the late-winner waveforms of the batch oracle test
// (idle lead-in, sub-symbol offsets, strong static echo, low SNR).
func TestDemodulateEqualizedMatchesOracle(t *testing.T) {
	check := func(t *testing.T, what string, dem *Demodulator, w []complex128, sps, taps int) {
		t.Helper()
		got := dem.DemodulateEqualized(w, sps, taps)
		want := dem.demodulateEqualized(w, sps, taps, func(syms *dsp.Batch, ar *dsp.Arena) (int, float64) {
			return offsetImmunePeak(syms.Lane(0), dem.centredPre, ar)
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d taps:\nkernel: %+v\noracle: %+v", what, taps, got, want)
		}
	}
	rng := rand.New(rand.NewSource(53))
	for i, echo := range []complex128{0, complex(0.8, 0.3), complex(-0.4, 0.5)} {
		wave, dem := multipathUplink(t, []byte("equalized oracle payload"), 8, echo, rng)
		for _, taps := range []int{1, 2, 4} {
			check(t, fmt.Sprintf("echo %d", i), dem, wave, 8, taps)
			check(t, fmt.Sprintf("echo %d, offset 3", i), dem, wave[3:], 8, taps)
		}
	}
	for _, bc := range batchCases() {
		waves, dem := buildLateWaves(t, 6, 2100, bc)
		for i, w := range waves {
			check(t, fmt.Sprintf("%s late wave %d", bc, i), dem, w, bc.sps, 3)
		}
	}
}
