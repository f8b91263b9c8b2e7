package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestNewResamplerValidation(t *testing.T) {
	if _, err := NewResampler(0, 1); err == nil {
		t.Fatal("zero L must error")
	}
	if _, err := NewResampler(1, 0); err == nil {
		t.Fatal("zero M must error")
	}
	r, err := NewResampler(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if l, m := r.Ratio(); l != 2 || m != 3 {
		t.Fatalf("ratio not reduced: %d/%d", l, m)
	}
}

func TestResampleIdentity(t *testing.T) {
	r, _ := NewResampler(3, 3)
	x := Tone(0.05, 1, 100, 0.4)
	y := r.ResampleTo(nil, x)
	if len(y) != len(x) {
		t.Fatalf("identity length %d", len(y))
	}
	for i := range x {
		if cmplx.Abs(y[i]-x[i]) > 1e-12 {
			t.Fatal("1/1 resampling must copy")
		}
	}
}

func TestResampleOutputLen(t *testing.T) {
	r, _ := NewResampler(2, 1)
	if r.OutputLen(100) != 200 {
		t.Fatal("2x upsample length")
	}
	r, _ = NewResampler(1, 4)
	if r.OutputLen(100) != 25 {
		t.Fatal("4x decimate length")
	}
	r, _ = NewResampler(3, 2)
	if r.OutputLen(100) != 150 {
		t.Fatal("3/2 length")
	}
}

// resampleToneTest verifies that a tone at fIn (cycles/sample) comes out
// at fIn*M/L... no: resampling preserves absolute frequency, so the
// normalized frequency scales by M/L.
func resampleToneTest(t *testing.T, l, m int, fNorm float64) {
	t.Helper()
	r, err := NewResampler(l, m)
	if err != nil {
		t.Fatal(err)
	}
	n := 3000
	x := Tone(fNorm, 1, n, 0)
	y := r.ResampleTo(nil, x)
	// Skip filter edges.
	core := y[len(y)/4 : len(y)*3/4]
	got := DominantFrequency(core, 1)
	want := fNorm * float64(m) / float64(l)
	if math.Abs(got-want) > 0.002 {
		t.Fatalf("L/M=%d/%d: tone at %g, want %g", l, m, got, want)
	}
	// Amplitude preserved (within filter ripple).
	if p := Power(core); math.Abs(p-1) > 0.05 {
		t.Fatalf("L/M=%d/%d: power %g, want 1", l, m, p)
	}
}

func TestResampleUp2(t *testing.T)   { resampleToneTest(t, 2, 1, 0.11) }
func TestResampleDown2(t *testing.T) { resampleToneTest(t, 1, 2, 0.11) }
func TestResample32(t *testing.T)    { resampleToneTest(t, 3, 2, 0.08) }
func TestResample23(t *testing.T)    { resampleToneTest(t, 2, 3, 0.08) }
func TestResample85(t *testing.T)    { resampleToneTest(t, 8, 5, 0.05) }

func TestResampleAntiAliasing(t *testing.T) {
	// A tone above the output Nyquist must be suppressed when
	// decimating, not aliased in.
	r, _ := NewResampler(1, 4)
	x := Tone(0.2, 1, 4000, 0) // output normalized freq would be 0.8 > 0.5
	y := r.ResampleTo(nil, x)
	core := y[len(y)/4 : len(y)*3/4]
	if p := Power(core); p > 0.01 {
		t.Fatalf("aliased power %g, want strong suppression", p)
	}
}

func TestResampleDCPreserved(t *testing.T) {
	r, _ := NewResampler(5, 3)
	x := make([]complex128, 600)
	for i := range x {
		x[i] = 2 + 1i
	}
	y := r.ResampleTo(nil, x)
	mid := y[len(y)/2]
	if cmplx.Abs(mid-(2+1i)) > 0.02 {
		t.Fatalf("DC through resampler: %v", mid)
	}
}

func BenchmarkResample32(b *testing.B) {
	r, _ := NewResampler(3, 2)
	x := Tone(0.05, 1, 4096, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.ResampleTo(nil, x)
	}
}
