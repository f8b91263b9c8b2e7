package phy

import (
	"math"
	"testing"

	"mmtag/internal/channel"
	"mmtag/internal/dsp"
)

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
