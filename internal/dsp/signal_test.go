package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// toneFrequency measures the mean frequency (Hz) of a unit-amplitude
// complex exponential from its average sample-to-sample phase advance.
func toneFrequency(x []complex128, sampleRate float64) float64 {
	var acc complex128
	for i := 1; i < len(x); i++ {
		acc += x[i] * cmplx.Conj(x[i-1])
	}
	return cmplx.Phase(acc) / (2 * math.Pi) * sampleRate
}

func TestNCOFrequency(t *testing.T) {
	fs := 1e6
	o := NewNCO(100e3, fs, 0)
	x := o.Block(1024)
	got := toneFrequency(x, fs)
	if math.Abs(got-100e3) > 100 {
		t.Fatalf("NCO frequency %g, want 100 kHz", got)
	}
	// Unit amplitude.
	if math.Abs(Power(x)-1) > 1e-12 {
		t.Fatalf("NCO power %g, want 1", Power(x))
	}
}

func TestNCOPhaseContinuity(t *testing.T) {
	o := NewNCO(0.01, 1, 0)
	a := o.Block(100)
	b := o.Block(100)
	// The concatenation must equal one 200-sample block.
	ref := NewNCO(0.01, 1, 0).Block(200)
	joined := append(append([]complex128{}, a...), b...)
	if e := maxErr(joined, ref); e > 1e-9 {
		t.Fatalf("phase discontinuity: %g", e)
	}
}

func TestNCORetuneKeepsPhase(t *testing.T) {
	o := NewNCO(0.1, 1, 0)
	o.Block(37)
	phaseBefore := o.Phase()
	o.SetFrequency(0.25, 1)
	if o.Phase() != phaseBefore {
		t.Fatal("SetFrequency must not jump phase")
	}
}

func TestMixShiftsSpectrum(t *testing.T) {
	fs := 1e6
	x := Tone(50e3, fs, 2048, 0.3)
	y := Mix(x, 100e3, fs, 0)
	got := toneFrequency(y, fs)
	if math.Abs(got-150e3) > 100 {
		t.Fatalf("mixed frequency %g, want 150 kHz", got)
	}
}

func TestMixDownToDC(t *testing.T) {
	fs := 1e6
	x := Tone(200e3, fs, 2048, 1.1)
	y := Mix(x, -200e3, fs, 0)
	// Result should be (nearly) constant.
	for i := 1; i < len(y); i++ {
		if cmplx.Abs(y[i]-y[0]) > 1e-9 {
			t.Fatalf("downmix not constant at %d", i)
		}
	}
}

func TestChirpSweep(t *testing.T) {
	fs := 10e6
	n := 8192
	c := Chirp(0, 2e6, fs, n)
	if math.Abs(Power(c)-1) > 1e-12 {
		t.Fatal("chirp must be unit amplitude")
	}
	// Instantaneous frequency early in the chirp is near 0, late is near
	// the top. Check by the mean frequency over a window.
	head := toneFrequency(c[:512], fs)
	tail := toneFrequency(c[n-512:], fs)
	if head > 0.5e6 {
		t.Fatalf("chirp head frequency %g, want near 0", head)
	}
	if tail < 1.5e6 {
		t.Fatalf("chirp tail frequency %g, want near 2 MHz", tail)
	}
}

func TestDelay(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	y := Delay(x, 2)
	want := []complex128{0, 0, 1, 2}
	if e := maxErr(y, want); e > 0 {
		t.Fatalf("Delay got %v", y)
	}
	// Delay beyond length zeroes everything.
	y = Delay(x, 10)
	for _, v := range y {
		if v != 0 {
			t.Fatal("over-delay must zero")
		}
	}
}

func TestPowerEnergyRMS(t *testing.T) {
	x := []complex128{3 + 4i, 3 + 4i} // |x| = 5, |x|^2 = 25
	if p := Power(x); math.Abs(p-25) > 1e-12 {
		t.Fatalf("Power %g", p)
	}
	if e := Energy(x); math.Abs(e-50) > 1e-12 {
		t.Fatalf("Energy %g", e)
	}
	if r := RMS(x); math.Abs(r-5) > 1e-12 {
		t.Fatalf("RMS %g", r)
	}
	if Power(nil) != 0 {
		t.Fatal("empty power must be 0")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, 128)
		Normalize(x)
		return math.Abs(Power(x)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	// Zero signal unchanged.
	z := make([]complex128, 4)
	Normalize(z)
	for _, v := range z {
		if v != 0 {
			t.Fatal("zero signal must stay zero")
		}
	}
}

func TestMagnitudeSquaredIsEnvelopeDetector(t *testing.T) {
	// |e^{j phi}|^2 == 1 regardless of phase: the square-law detector
	// strips phase, which is exactly why the tag needs no oscillator.
	x := Tone(0.123, 1, 100, 0.7)
	for _, v := range MagnitudeSquared(x) {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("envelope %g, want 1", v)
		}
	}
}

func TestDecimateUpsample(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5, 6, 7}
	d := Decimate(x, 3)
	want := []complex128{1, 4, 7}
	if e := maxErr(d, want); e > 0 {
		t.Fatalf("Decimate got %v", d)
	}
	u := Upsample([]complex128{1, 2}, 3)
	wantU := []complex128{1, 0, 0, 2, 0, 0}
	if e := maxErr(u, wantU); e > 0 {
		t.Fatalf("Upsample got %v", u)
	}
}

func TestAddScale(t *testing.T) {
	a := []complex128{1, 2}
	b := []complex128{10, 20}
	Add(a, b)
	if a[0] != 11 || a[1] != 22 {
		t.Fatalf("Add got %v", a)
	}
	Scale(a, 2)
	if a[0] != 22 || a[1] != 44 {
		t.Fatalf("Scale got %v", a)
	}
}

func TestAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add([]complex128{1}, []complex128{1, 2})
}
