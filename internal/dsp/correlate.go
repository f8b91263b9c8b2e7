package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// CrossCorrelateTo writes the full linear cross-correlation of x with
// the reference ref into dst:
//
//	r[k] = sum_n x[n+k] * conj(ref[n]),  k = 0 .. len(x)-len(ref)
//
// (valid lags only: the reference fully overlaps x). dst grows only
// when its capacity is short and must not overlap x. It returns nil when
// ref is longer than x or either is empty. Work large enough to pay for
// it runs as FFT fast correlation with scratch (the reference spectrum
// included) borrowed from ar; a nil ar allocates the scratch fresh, and
// with an arena and a capacious dst a call is allocation-free in steady
// state.
func CrossCorrelateTo(dst, x, ref []complex128, ar *Arena) []complex128 {
	return correlate(dst, x, ref, nil, ar)
}

// CorrKernel caches the forward-transformed, conjugate-reversed spectrum
// of a fixed reference sequence, so repeated correlations against the
// same reference (a receiver's preamble search) pay one forward and one
// inverse FFT per call instead of two forward and one inverse. Safe for
// concurrent use; results are bit-identical to CrossCorrelateTo.
type CorrKernel struct {
	ref []complex128

	mu   sync.Mutex
	spec map[int][]complex128 // FFT size -> reference spectrum
}

// NewCorrKernel copies ref into a reusable correlation kernel.
func NewCorrKernel(ref []complex128) *CorrKernel {
	r := make([]complex128, len(ref))
	copy(r, ref)
	return &CorrKernel{ref: r, spec: make(map[int][]complex128)}
}

// Ref returns the kernel's reference sequence. The slice is shared and
// must not be modified.
func (kn *CorrKernel) Ref() []complex128 { return kn.ref }

// CrossCorrelateTo correlates x against the kernel's reference, writing
// into dst with FFT scratch from ar, exactly as the package-level
// CrossCorrelateTo would with the same reference.
func (kn *CorrKernel) CrossCorrelateTo(dst, x []complex128, ar *Arena) []complex128 {
	return correlate(dst, x, kn.ref, kn, ar)
}

// correlate is the body of both CrossCorrelateTo entry points. The FFT
// path takes the reference spectrum from kn's cache, or, with a nil kn,
// builds it in arena scratch for this call alone.
func correlate(dst, x, ref []complex128, kn *CorrKernel, ar *Arena) []complex128 {
	n, m := len(x), len(ref)
	if m == 0 || n < m {
		return nil
	}
	out := GrowComplex(dst, n-m+1)
	if n*m <= 1<<14 {
		correlateDirect(out, x, ref)
		return out
	}
	// FFT method: correlation is convolution with the conjugate-reversed
	// reference.
	size := NextPow2(n + m - 1)
	p := PlanFFT(size)
	var spec []complex128
	if kn != nil {
		spec = kn.spectrum(size, p)
	} else {
		spec = refSpectrum(ar.ComplexZeroed(size), ref, p)
	}
	fx := ar.ComplexZeroed(size)
	copy(fx, x)
	p.radix2To(fx, fx, false)
	for i := range fx {
		fx[i] *= spec[i]
	}
	p.radix2To(fx, fx, true)
	scale := complex(1/float64(size), 0)
	for k := range out {
		out[k] = fx[k+m-1] * scale
	}
	ar.PutComplex(fx)
	if kn == nil {
		ar.PutComplex(spec)
	}
	return out
}

// correlateDirect is the direct-form correlation for problems under the
// FFT threshold: out[k] = sum_i x[k+i] * conj(ref[i]) for every k in
// out, summed in ascending i.
func correlateDirect(out, x, ref []complex128) {
	for k := range out {
		var acc complex128
		for i, r := range ref {
			acc += x[k+i] * cmplx.Conj(r)
		}
		out[k] = acc
	}
}

// refSpectrum fills the zeroed buffer fr with the forward transform of
// the conjugate-reversed reference and returns it; len(fr) is the plan
// size.
func refSpectrum(fr, ref []complex128, p *Plan) []complex128 {
	m := len(ref)
	for i := 0; i < m; i++ {
		fr[i] = cmplx.Conj(ref[m-1-i])
	}
	p.radix2To(fr, fr, false)
	return fr
}

// spectrum returns the reference spectrum at the given FFT size,
// computing and caching it on first use per size. Cached slices are
// never mutated after publication, so callers may read them after the
// lock is released.
func (kn *CorrKernel) spectrum(size int, p *Plan) []complex128 {
	kn.mu.Lock()
	defer kn.mu.Unlock()
	if s, ok := kn.spec[size]; ok {
		return s
	}
	fr := refSpectrum(make([]complex128, size), kn.ref, p)
	kn.spec[size] = fr
	return fr
}

// PeakIndex returns the index of the maximum-magnitude sample and that
// magnitude. It returns (-1, 0) for empty input.
func PeakIndex(x []complex128) (int, float64) {
	best, bestMag := -1, 0.0
	for i, v := range x {
		m := cmplxAbs(v)
		if m > bestMag || best == -1 {
			best, bestMag = i, m
		}
	}
	return best, bestMag
}

// NormalizedPeak returns the lag and magnitude of the correlation peak
// of x against ref, normalized by the energies of the two sequences
// (1.0 = perfect match): the preamble detection statistic. Correlation
// scratch comes from ar (nil ar allocates it fresh). It returns (-1, 0)
// when ref is empty, longer than x or has zero energy.
func NormalizedPeak(x, ref []complex128, ar *Arena) (lag int, score float64) {
	if len(ref) == 0 || len(x) < len(ref) {
		return -1, 0
	}
	r := CrossCorrelateTo(ar.Complex(len(x)-len(ref)+1), x, ref, ar)
	defer ar.PutComplex(r)
	refE := Energy(ref)
	if refE == 0 {
		return -1, 0
	}
	best, bestScore := -1, 0.0
	for k, v := range r {
		segE := Energy(x[k : k+len(ref)])
		if segE == 0 {
			continue
		}
		s := cmplxAbs(v) / math.Sqrt(segE*refE)
		if s > bestScore {
			best, bestScore = k, s
		}
	}
	return best, bestScore
}

// Goertzel computes the DFT of x at a single normalized frequency
// fNorm (cycles/sample) using the Goertzel recurrence — the standard
// low-cost single-bin detector for tone presence tests.
func Goertzel(x []complex128, fNorm float64) complex128 {
	w := 2 * math.Pi * fNorm
	coeff := 2 * math.Cos(w)
	var s1re, s2re, s1im, s2im float64
	for _, v := range x {
		s0re := real(v) + coeff*s1re - s2re
		s0im := imag(v) + coeff*s1im - s2im
		s2re, s1re = s1re, s0re
		s2im, s1im = s1im, s0im
	}
	// X(f) = e^{jw} * s1 - s2 (exact for integer bins f = k/N).
	c, s := math.Cos(w), math.Sin(w)
	re := c*s1re - s*s1im - s2re
	im := c*s1im + s*s1re - s2im
	return complex(re, im)
}

// GoertzelPower returns |Goertzel(x, fNorm)|^2 normalized by block length
// squared, i.e. the power of a unit tone at fNorm measures ~1.
func GoertzelPower(x []complex128, fNorm float64) float64 {
	g := Goertzel(x, fNorm)
	n := float64(len(x))
	if n == 0 {
		return 0
	}
	return (real(g)*real(g) + imag(g)*imag(g)) / (n * n)
}
