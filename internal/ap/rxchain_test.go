package ap

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/channel"
	"mmtag/internal/frame"
	"mmtag/internal/phy"
	"mmtag/internal/vanatta"
)

// buildUplinkWaveform simulates the complete uplink air interface at
// baseband: preamble + frame symbols through the tag's switch modulator,
// scaled by the echo amplitude, buried under a static offset
// (self-interference + clutter) and AWGN.
func buildUplinkWaveform(t testing.TB, set vanatta.StateSet, payload []byte,
	sps int, riseFrac float64, echoAmp, staticOffset complex128, noisePower float64,
	rng *rand.Rand, opts frame.Options) ([]complex128, []byte, *Demodulator) {
	t.Helper()

	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		t.Fatal(err)
	}
	dem, err := NewDemodulator(c, 63, opts)
	if err != nil {
		t.Fatal(err)
	}

	f := &frame.Frame{Type: frame.TypeData, TagID: 42, Seq: 1, Payload: payload}
	bits, err := f.EncodeBits(opts)
	if err != nil {
		t.Fatal(err)
	}
	symbols := append(dem.PreambleSymbolIndices(), c.MapBits(nil, bits)...)

	symbolRate := 10e6
	sampleRate := symbolRate * float64(sps)
	rise := riseFrac / symbolRate
	mod, err := vanatta.NewModulator(set, symbolRate, sampleRate, rise)
	if err != nil {
		t.Fatal(err)
	}
	gamma := mod.Waveform(nil, symbols)

	// Lead-in/out of idle (first-state) samples so sync must really work.
	lead := make([]int, 16)
	tail := make([]int, 16)
	pre := mod.Waveform(nil, tail) // reuse state; exact content irrelevant
	_ = pre
	wave := make([]complex128, 0, (len(symbols)+32)*sps)
	idle, _ := vanatta.NewModulator(set, symbolRate, sampleRate, rise)
	wave = idle.Waveform(wave, lead)
	wave = append(wave, gamma...)
	wave = idle.Waveform(wave, tail)

	// Channel: scale, offset, noise.
	for i := range wave {
		wave[i] = wave[i]*echoAmp + staticOffset
	}
	channel.AWGN(rng, wave, noisePower)
	return wave, bits, dem
}

func TestUplinkEndToEndCleanAllAlphabets(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, set := range []vanatta.StateSet{vanatta.OOK(), vanatta.BPSK(), vanatta.QPSK(), vanatta.PSK8(), vanatta.QAM16()} {
		t.Run(set.Name(), func(t *testing.T) {
			payload := []byte("mmtag uplink payload for " + set.Name())
			echo := complex(0.002, 0.0015) // weak tag echo, arbitrary phase
			static := complex(0.9, -0.4)   // SI + clutter, ~50 dB above echo
			wave, _, dem := buildUplinkWaveform(t, set, payload, 8, 0.02,
				echo, static, 1e-9, rng, frame.Options{})
			res := dem.Demodulate(wave, 8)
			if !res.OK() {
				t.Fatalf("demodulation failed: %v (score %.2f)", res.Err, res.SyncScore)
			}
			if res.Frame.TagID != 42 || !bytes.Equal(res.Frame.Payload, payload) {
				t.Fatalf("frame corrupted: %+v", res.Frame)
			}
			if res.SyncScore < 0.9 {
				t.Fatalf("sync score %g", res.SyncScore)
			}
			// The offset estimate must land on the injected static term.
			if d := cmplxAbsDiff(res.Offset, static); d > 0.01 {
				t.Fatalf("offset estimate off by %g", d)
			}
		})
	}
}

func cmplxAbsDiff(a, b complex128) float64 {
	return math.Hypot(real(a-b), imag(a-b))
}

func TestUplinkEndToEndNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	payload := make([]byte, 64)
	rng.Read(payload)
	echo := complex(0.002, 0)
	// Echo symbol power ~ |echo|^2 * mean|Γ|^2 (OOK: 0.5) = 2e-6.
	// Noise 13 dB below that still decodes with the coded frame.
	noise := 2e-6 * math.Pow(10, -13.0/10)
	wave, _, dem := buildUplinkWaveform(t, vanatta.OOK(), payload, 8, 0.05,
		echo, complex(0.5, 0.5), noise, rng, frame.Options{Coded: true})
	res := dem.Demodulate(wave, 8)
	if !res.OK() {
		t.Fatalf("noisy coded uplink failed: %v (EVM %.2f, score %.2f)", res.Err, res.EVM, res.SyncScore)
	}
	if !bytes.Equal(res.Frame.Payload, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestUplinkSwitchRiseTimeDegradesEVM(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	payload := []byte("rise time test payload")
	var evms []float64
	for _, riseFrac := range []float64{0.01, 0.3} {
		wave, _, dem := buildUplinkWaveform(t, vanatta.BPSK(), payload, 8, riseFrac,
			complex(0.002, 0), complex(0.8, 0), 1e-10, rand.New(rand.NewSource(rng.Int63())), frame.Options{})
		res := dem.Demodulate(wave, 8)
		if !res.OK() {
			t.Fatalf("rise %g: %v", riseFrac, res.Err)
		}
		evms = append(evms, res.EVM)
	}
	if evms[1] <= evms[0] {
		t.Fatalf("slow switch should raise EVM: %g vs %g", evms[1], evms[0])
	}
}

func TestUplinkSoftDecodingExtendsRange(t *testing.T) {
	// At a noise level where hard-decision coded decoding mostly fails,
	// the soft path inside Demodulate still recovers most frames.
	const trials = 12
	softOK := 0
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(400 + i)))
		payload := make([]byte, 48)
		rng.Read(payload)
		echo := complex(0.002, 0)
		// Echo symbol power (OOK mean 0.5) ~2e-6; noise only 8 dB down:
		// raw BER ~2-4%, far beyond the hard Viterbi's comfort.
		noise := 2e-6 * math.Pow(10, -8.0/10)
		wave, _, dem := buildUplinkWaveform(t, vanatta.OOK(), payload, 8, 0.05,
			echo, complex(0.6, 0.2), noise, rng, frame.Options{Coded: true})
		if res := dem.Demodulate(wave, 8); res.OK() && bytes.Equal(res.Frame.Payload, payload) {
			softOK++
		}
	}
	if softOK < trials*2/3 {
		t.Fatalf("soft-path decode rate %d/%d too low at the deep-noise point", softOK, trials)
	}
}

func TestUplinkFailsWithoutSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c, _ := phy.NewConstellation("ook", vanatta.OOK().States())
	dem, _ := NewDemodulator(c, 63, frame.Options{})
	// Pure noise + static offset: no preamble to find.
	wave := make([]complex128, 8192)
	for i := range wave {
		wave[i] = complex(0.5, -0.2)
	}
	channel.AWGN(rng, wave, 1e-4)
	res := dem.Demodulate(wave, 8)
	if res.OK() {
		t.Fatal("must not decode a frame from noise")
	}
}

func TestUplinkTooShort(t *testing.T) {
	c, _ := phy.NewConstellation("ook", vanatta.OOK().States())
	dem, _ := NewDemodulator(c, 63, frame.Options{})
	res := dem.Demodulate(make([]complex128, 32), 8)
	if res.OK() || res.Err == nil {
		t.Fatal("short waveform must fail")
	}
	res = dem.Demodulate(make([]complex128, 10000), 1)
	if res.OK() {
		t.Fatal("sps 1 must fail")
	}
}

func TestNewDemodulatorValidation(t *testing.T) {
	c, _ := phy.NewConstellation("ook", vanatta.OOK().States())
	if _, err := NewDemodulator(nil, 63, frame.Options{}); err == nil {
		t.Fatal("nil constellation must error")
	}
	if _, err := NewDemodulator(c, 4, frame.Options{}); err == nil {
		t.Fatal("tiny preamble must error")
	}
	d, err := NewDemodulator(c, 31, frame.Options{})
	if err != nil || len(d.preambleBits) != 31 {
		t.Fatalf("valid demodulator: %v", err)
	}
}

func TestUplinkThroughADC(t *testing.T) {
	// The full front end: residual SI at ADC full scale with the tag
	// echo ~46 dB down still decodes with a 12-bit converter.
	rng := rand.New(rand.NewSource(25))
	a, _ := New(Config{ADCBits: 12})
	payload := []byte("adc path payload")
	wave, _, dem := buildUplinkWaveform(t, vanatta.OOK(), payload, 8, 0.02,
		complex(0.005, 0), complex(0.7, 0.1), 1e-9, rng, frame.Options{})
	quant := a.QuantizeTo(nil, wave, 1.0)
	res := dem.Demodulate(quant, 8)
	if !res.OK() {
		t.Fatalf("ADC-path uplink failed: %v", res.Err)
	}
	if !bytes.Equal(res.Frame.Payload, payload) {
		t.Fatal("payload corrupted through ADC")
	}

	// With a 4-bit converter the same echo drowns in quantization noise.
	coarse, _ := New(Config{ADCBits: 4})
	res4 := coarse.QuantizeTo(nil, wave, 1.0)
	out := dem.Demodulate(res4, 8)
	if out.OK() {
		t.Fatal("4-bit ADC should not recover a -43 dBFS echo")
	}
}

func BenchmarkDemodulateOOK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c, _ := phy.NewConstellation("ook", vanatta.OOK().States())
	dem, _ := NewDemodulator(c, 63, frame.Options{})
	f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: make([]byte, 64)}
	bits, _ := f.EncodeBits(frame.Options{})
	symbols := append(dem.PreambleSymbolIndices(), c.MapBits(nil, bits)...)
	mod, _ := vanatta.NewModulator(vanatta.OOK(), 10e6, 80e6, 2e-9)
	wave := mod.Waveform(nil, symbols)
	for i := range wave {
		wave[i] = wave[i]*0.002 + complex(0.5, 0.2)
	}
	channel.AWGN(rng, wave, 1e-9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := dem.Demodulate(wave, 8); !res.OK() {
			b.Fatal(res.Err)
		}
	}
}
