package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestDesignLowpassResponse(t *testing.T) {
	fs := 1e6
	lp, err := DesignLowpass(100e3, fs, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	// DC gain exactly 1.
	if g := cmplxAbs(lp.FrequencyResponse(0)); math.Abs(g-1) > 1e-12 {
		t.Fatalf("DC gain %g, want 1", g)
	}
	// Deep attenuation well into the stopband.
	if g := cmplxAbs(lp.FrequencyResponse(300e3 / fs)); g > 0.01 {
		t.Fatalf("stopband gain %g, want < 0.01", g)
	}
	// Passband ripple small.
	if g := cmplxAbs(lp.FrequencyResponse(20e3 / fs)); math.Abs(g-1) > 0.01 {
		t.Fatalf("passband gain %g, want ~1", g)
	}
	// Roughly -6 dB at cutoff for a windowed-sinc design.
	if g := cmplxAbs(lp.FrequencyResponse(100e3 / fs)); g < 0.3 || g > 0.7 {
		t.Fatalf("cutoff gain %g, want ~0.5", g)
	}
}

func TestDesignLowpassErrors(t *testing.T) {
	if _, err := DesignLowpass(100e3, 1e6, 100, Hamming); err == nil {
		t.Fatal("even tap count must error")
	}
	if _, err := DesignLowpass(600e3, 1e6, 101, Hamming); err == nil {
		t.Fatal("cutoff above Nyquist must error")
	}
	if _, err := DesignLowpass(-1, 1e6, 101, Hamming); err == nil {
		t.Fatal("negative cutoff must error")
	}
}

func TestDesignHighpassResponse(t *testing.T) {
	fs := 1e6
	hp, err := DesignHighpass(100e3, fs, 101, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplxAbs(hp.FrequencyResponse(0)); g > 1e-6 {
		t.Fatalf("DC gain %g, want ~0", g)
	}
	if g := cmplxAbs(hp.FrequencyResponse(0.5)); math.Abs(g-1) > 1e-9 {
		t.Fatalf("Nyquist gain %g, want 1", g)
	}
	if g := cmplxAbs(hp.FrequencyResponse(300e3 / fs)); math.Abs(g-1) > 0.02 {
		t.Fatalf("passband gain %g, want ~1", g)
	}
}

func TestDesignBandpassResponse(t *testing.T) {
	fs := 1e6
	bp, err := DesignBandpass(100e3, 200e3, fs, 151, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	centre := math.Sqrt(100e3*200e3) / fs
	if g := cmplxAbs(bp.FrequencyResponse(centre)); math.Abs(g-1) > 1e-9 {
		t.Fatalf("centre gain %g, want 1", g)
	}
	if g := cmplxAbs(bp.FrequencyResponse(0)); g > 0.01 {
		t.Fatalf("DC leakage %g", g)
	}
	if g := cmplxAbs(bp.FrequencyResponse(400e3 / fs)); g > 0.01 {
		t.Fatalf("upper stopband leakage %g", g)
	}
	if _, err := DesignBandpass(200e3, 100e3, fs, 151, Hamming); err == nil {
		t.Fatal("inverted band must error")
	}
}

func TestFIRFilterImpulse(t *testing.T) {
	// Filtering an impulse returns the taps.
	f := NewFIR([]float64{0.25, 0.5, 0.25})
	x := make([]complex128, 5)
	x[0] = 1
	y := f.FilterTo(nil, x)
	want := []float64{0.25, 0.5, 0.25, 0, 0}
	for i := range want {
		if math.Abs(real(y[i])-want[i]) > 1e-15 {
			t.Fatalf("impulse response %v, want %v", y, want)
		}
	}
}

func TestFIRStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f1 := MovingAverage(7)
	f2 := MovingAverage(7)
	x := randSignal(rng, 200)
	batch := f1.FilterTo(nil, x)
	var stream []complex128
	// Uneven block sizes, including blocks shorter than the tap count.
	for _, blk := range [][2]int{{0, 3}, {3, 10}, {10, 64}, {64, 65}, {65, 200}} {
		stream = append(stream, f2.Process(x[blk[0]:blk[1]])...)
	}
	if e := maxErr(batch, stream); e > 1e-12 {
		t.Fatalf("streaming mismatch %g", e)
	}
}

func TestFIRReset(t *testing.T) {
	f := MovingAverage(4)
	x := []complex128{1, 1, 1, 1}
	first := f.Process(x)
	f.Reset()
	second := f.Process(x)
	if e := maxErr(first, second); e > 1e-15 {
		t.Fatal("Reset did not clear state")
	}
}

func TestMovingAverageDCGain(t *testing.T) {
	f := MovingAverage(9)
	x := make([]complex128, 50)
	for i := range x {
		x[i] = 2
	}
	y := f.FilterTo(nil, x)
	// After the transient, output equals input mean.
	for i := 10; i < 50; i++ {
		if math.Abs(real(y[i])-2) > 1e-12 {
			t.Fatalf("sample %d = %v, want 2", i, y[i])
		}
	}
}

func TestFIRGroupDelay(t *testing.T) {
	lp, _ := DesignLowpass(0.1*1e6, 1e6, 21, Hamming)
	if gd := lp.GroupDelay(); gd != 10 {
		t.Fatalf("group delay %g, want 10", gd)
	}
}

func TestDCBlockerRemovesDC(t *testing.T) {
	d, err := NewDCBlocker(0.995)
	if err != nil {
		t.Fatal(err)
	}
	// Constant input must settle to ~0 output immediately thanks to
	// priming.
	x := make([]complex128, 2000)
	for i := range x {
		x[i] = 3 + 1i
	}
	y := d.Process(x)
	for i, v := range y {
		if cmplxAbs(v) > 1e-9 {
			t.Fatalf("DC leak at sample %d: %v", i, v)
		}
	}
}

func TestDCBlockerPassesAC(t *testing.T) {
	d, _ := NewDCBlocker(0.995)
	// A tone well above the blocker corner passes with ~unit gain.
	x := Tone(0.1, 1, 4000, 0)
	for i := range x {
		x[i] += 5 // large DC offset
	}
	y := d.Process(x)
	// Skip the settling transient, then compare power to the tone's.
	tail := y[2000:]
	p := Power(tail)
	if math.Abs(p-1) > 0.05 {
		t.Fatalf("AC power through blocker %g, want ~1", p)
	}
}

func TestDCBlockerErrors(t *testing.T) {
	for _, r := range []float64{0, 1, -0.5, 1.5} {
		if _, err := NewDCBlocker(r); err == nil {
			t.Fatalf("radius %g must error", r)
		}
	}
}

func TestDCBlockerReset(t *testing.T) {
	d, _ := NewDCBlocker(0.99)
	x := []complex128{1, 2, 3}
	a := d.Process(x)
	d.Reset()
	b := d.Process(x)
	if e := maxErr(a, b); e > 1e-15 {
		t.Fatal("Reset did not clear blocker state")
	}
}

func TestFIRTapsCopied(t *testing.T) {
	taps := []float64{1, 2, 3}
	f := NewFIR(taps)
	taps[0] = 99
	if f.Taps()[0] != 1 {
		t.Fatal("NewFIR must copy taps")
	}
	got := f.Taps()
	got[1] = 99
	if f.Taps()[1] != 2 {
		t.Fatal("Taps must return a copy")
	}
}

func BenchmarkFIRFilter101Taps(b *testing.B) {
	lp, _ := DesignLowpass(100e3, 1e6, 101, Hamming)
	x := randSignal(rand.New(rand.NewSource(1)), 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lp.FilterTo(nil, x)
	}
}
