package ap

import (
	"bytes"
	"math/rand"
	"testing"

	"mmtag/internal/channel"
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
