// Package dsp implements the complex-baseband digital signal processing
// substrate for the mmTag simulator: FFTs of arbitrary length, window
// functions, FIR filter design and application, numerically controlled
// oscillators and mixing, correlation, resampling, and spectral
// estimation.
//
// Signals are []complex128 sample slices at an implicit sample rate that
// callers carry alongside. All transforms are deterministic. Each
// kernel has a single entry point, XTo(dst, ...), that writes into dst
// and grows it only when its capacity is short: pass nil for a fresh
// output slice. Kernels that need scratch borrow it from an *Arena
// argument, and a nil arena allocates the scratch fresh.
//
// DESIGN.md: section 3 (module inventory); the waveform level of section 6
// runs on these kernels.
package dsp

import (
	"math/bits"
)

// FFTTo writes the discrete Fourier transform of x into dst and returns
// dst, growing it only when its capacity is short (a nil dst yields a
// fresh slice). The input is not modified unless dst is x itself, which
// runs the transform fully in place; dst must not otherwise overlap x.
// Power-of-two lengths use an iterative radix-2 decimation-in-time
// transform; other lengths use Bluestein's algorithm. Both run through
// the cached per-size Plan (see PlanFFT), so repeated transforms of a
// size pay no twiddle recomputation, and a call with a capacious dst
// allocates nothing once the size's plan exists. An empty x yields
// dst[:0].
func FFTTo(dst, x []complex128) []complex128 {
	if len(x) == 0 {
		return dst[:0]
	}
	return PlanFFT(len(x)).FFTTo(dst, x)
}

// IFFTTo writes the inverse discrete Fourier transform of x into dst,
// scaled by 1/N so that IFFTTo following FFTTo round-trips, under the
// same dst and aliasing contract as FFTTo.
func IFFTTo(dst, x []complex128) []complex128 {
	if len(x) == 0 {
		return dst[:0]
	}
	return PlanFFT(len(x)).IFFTTo(dst, x)
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum of length len(x).
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFTTo(c, c)
}

// FFTShift rotates a spectrum so the zero-frequency bin is centred,
// matching the conventional plot order. It returns a new slice.
func FFTShift(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	half := (n + 1) / 2
	copy(out, x[half:])
	copy(out[n-half:], x[:half])
	return out
}

// FFTFreqs returns the frequency (Hz) of each FFT bin for an N-point
// transform at the given sample rate, in natural (unshifted) bin order:
// bins [0, N/2) are non-negative, bins [N/2, N) are negative.
func FFTFreqs(n int, sampleRate float64) []float64 {
	f := make([]float64, n)
	for i := 0; i < n; i++ {
		k := i
		if i >= (n+1)/2 {
			k = i - n
		}
		f[i] = float64(k) * sampleRate / float64(n)
	}
	return f
}

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
