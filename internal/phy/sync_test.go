package phy

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/channel"
	"mmtag/internal/dsp"
)

func TestBestTimingOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewQPSK()
	s, _ := NewShaper(0.35, 8, 10)
	bits := RandomBits(rng, 400)
	wave := s.ShapeTo(nil, c.Modulate(nil, c.MapBits(nil, bits)), nil)
	matched := s.MatchedFilterTo(nil, wave)
	// The correct sampling phase is (2*Delay) mod sps = 0 for this
	// configuration; energy peaks there.
	off, err := BestTimingOffset(matched, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := (2 * s.Delay()) % 8
	if off != want {
		t.Fatalf("timing offset %d, want %d", off, want)
	}
}

func TestBestTimingOffsetErrors(t *testing.T) {
	if _, err := BestTimingOffset(make([]complex128, 10), 1); err == nil {
		t.Fatal("sps 1 must error")
	}
	if _, err := BestTimingOffset(make([]complex128, 3), 8); err == nil {
		t.Fatal("short waveform must error")
	}
}

func TestFrameSyncLocatesPreamble(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pre := make([]complex128, 64)
	for i := range pre {
		pre[i] = complex(float64(rng.Intn(2)*2-1), 0)
	}
	x := make([]complex128, 1000)
	channel.AWGN(rng, x, 0.01)
	copy(x[300:], pre)
	channel.AWGN(rng, x[300:364], 0.01)
	idx, score := FrameSync(x, pre)
	if idx != 300 {
		t.Fatalf("preamble at %d, want 300", idx)
	}
	if score < 0.9 {
		t.Fatalf("sync score %g", score)
	}
}

func TestCarrierPhaseAndDerotate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewQPSK()
	bits := RandomBits(rng, 256)
	tx := c.Modulate(nil, c.MapBits(nil, bits))
	// Rotate by a small residual phase (must stay within the decision
	// region: < pi/4 for QPSK).
	phi := 0.3
	rx := make([]complex128, len(tx))
	for i := range tx {
		rx[i] = tx[i] * complex(math.Cos(phi), math.Sin(phi))
	}
	est := CarrierPhase(c, rx)
	if math.Abs(est-phi) > 0.01 {
		t.Fatalf("phase estimate %g, want %g", est, phi)
	}
	Derotate(rx, est)
	for i := range rx {
		if c.Nearest(rx[i]) != c.Nearest(tx[i]) {
			t.Fatal("derotated decisions must match")
		}
	}
}

func TestCFOEstimate(t *testing.T) {
	fs := 10e6
	cfo := 12_345.0
	// Repeated training sequence: a tone segment duplicated.
	half := dsp.Tone(1e6, fs, 256, 0)
	x := append(append([]complex128{}, half...), half...)
	channel.ApplyCFO(x, cfo, fs, 0.7)
	got, err := CFOEstimate(x, 256, fs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-cfo) > 20 {
		t.Fatalf("CFO estimate %g, want %g", got, cfo)
	}
}

func TestCFOEstimateRange(t *testing.T) {
	// The estimator is unambiguous for |CFO| < fs/(2*halfLen).
	fs := 10e6
	half := dsp.Tone(0, fs, 100, 0)
	x := append(append([]complex128{}, half...), half...)
	maxCFO := fs / (2 * 100) // 50 kHz
	channel.ApplyCFO(x, maxCFO*0.8, fs, 0)
	got, _ := CFOEstimate(x, 100, fs)
	if math.Abs(got-maxCFO*0.8) > maxCFO*0.01 {
		t.Fatalf("near-limit CFO %g, want %g", got, maxCFO*0.8)
	}
}

func TestCFOEstimateErrors(t *testing.T) {
	if _, err := CFOEstimate(make([]complex128, 10), 6, 1e6); err == nil {
		t.Fatal("short input must error")
	}
	if _, err := CFOEstimate(nil, 0, 1e6); err == nil {
		t.Fatal("zero halfLen must error")
	}
}
