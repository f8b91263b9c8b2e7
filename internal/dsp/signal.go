package dsp

import (
	"math"
	"math/cmplx"
)

// NCO is a numerically controlled oscillator producing unit-amplitude
// complex exponentials at a programmable frequency, with continuous phase
// across blocks and frequency changes.
type NCO struct {
	phase float64 // radians
	step  float64 // radians per sample
}

// NewNCO returns an oscillator at freqHz for the given sample rate,
// starting at phase radians.
func NewNCO(freqHz, sampleRate, phase float64) *NCO {
	return &NCO{phase: phase, step: 2 * math.Pi * freqHz / sampleRate}
}

// SetFrequency retunes the oscillator, preserving phase continuity.
func (o *NCO) SetFrequency(freqHz, sampleRate float64) {
	o.step = 2 * math.Pi * freqHz / sampleRate
}

// Next returns the next oscillator sample and advances phase.
func (o *NCO) Next() complex128 {
	s := cmplx.Exp(complex(0, o.phase))
	o.phase += o.step
	if o.phase > math.Pi*2 || o.phase < -math.Pi*2 {
		o.phase = math.Mod(o.phase, 2*math.Pi)
	}
	return s
}

// Block fills a new slice of n oscillator samples.
func (o *NCO) Block(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = o.Next()
	}
	return out
}

// Phase returns the oscillator's current phase in radians.
func (o *NCO) Phase() float64 { return o.phase }

// Tone synthesizes n samples of a unit complex exponential at freqHz.
func Tone(freqHz, sampleRate float64, n int, phase float64) []complex128 {
	return NewNCO(freqHz, sampleRate, phase).Block(n)
}

// Mix multiplies x by a complex exponential at freqHz, shifting its
// spectrum by +freqHz. It returns a new slice.
func Mix(x []complex128, freqHz, sampleRate, phase float64) []complex128 {
	o := NewNCO(freqHz, sampleRate, phase)
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v * o.Next()
	}
	return out
}

// Chirp synthesizes a linear FMCW chirp sweeping from f0 to f1 over n
// samples (complex baseband, unit amplitude).
func Chirp(f0, f1, sampleRate float64, n int) []complex128 {
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	k := (f1 - f0) / (float64(n) / sampleRate) // Hz per second
	for i := range out {
		t := float64(i) / sampleRate
		phi := 2 * math.Pi * (f0*t + 0.5*k*t*t)
		out[i] = cmplx.Exp(complex(0, phi))
	}
	return out
}

// Scale multiplies x by a real gain in place and returns x.
func Scale(x []complex128, gain float64) []complex128 {
	g := complex(gain, 0)
	for i := range x {
		x[i] *= g
	}
	return x
}

// Add sums b into a in place and returns a. It panics on length mismatch.
func Add(a, b []complex128) []complex128 {
	if len(a) != len(b) {
		panic("dsp: Add length mismatch")
	}
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// Delay returns x delayed by whole samples, zero-padded at the front and
// truncated to the original length. d must be >= 0.
func Delay(x []complex128, d int) []complex128 {
	if d < 0 {
		panic("dsp: Delay requires non-negative delay")
	}
	out := make([]complex128, len(x))
	if d >= len(x) {
		return out
	}
	copy(out[d:], x[:len(x)-d])
	return out
}

// Power returns the mean squared magnitude of x (average power).
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s / float64(len(x))
}

// Energy returns the total energy (sum of squared magnitudes) of x.
func Energy(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}

// RMS returns the root-mean-square magnitude of x.
func RMS(x []complex128) float64 { return math.Sqrt(Power(x)) }

// Normalize scales x in place to unit average power and returns x. A zero
// signal is returned unchanged.
func Normalize(x []complex128) []complex128 {
	p := Power(x)
	if p == 0 {
		return x
	}
	return Scale(x, 1/math.Sqrt(p))
}

// MagnitudeSquared returns |x[i]|^2 for each sample. This models an ideal
// square-law envelope detector output.
func MagnitudeSquared(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return out
}

// Decimate keeps every factor-th sample of x starting at offset 0. The
// caller is responsible for anti-alias filtering first.
func Decimate(x []complex128, factor int) []complex128 {
	if factor < 1 {
		panic("dsp: decimation factor must be >= 1")
	}
	out := make([]complex128, 0, (len(x)+factor-1)/factor)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}

// Upsample inserts factor-1 zeros between samples. The caller applies an
// interpolation filter afterwards.
func Upsample(x []complex128, factor int) []complex128 {
	if factor < 1 {
		panic("dsp: upsampling factor must be >= 1")
	}
	out := make([]complex128, len(x)*factor)
	for i, v := range x {
		out[i*factor] = v
	}
	return out
}
