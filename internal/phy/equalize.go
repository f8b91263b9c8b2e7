package phy

import (
	"fmt"
	"math/cmplx"

	"mmtag/internal/dsp"
)

// DesignEqualizer computes a linear MMSE equalizer of nTaps taps for a
// channel impulse response h (as estimated by EstimateCIR): the w that
// minimizes E|conv(h, w)[delay] - s|², i.e. solves
//
//	(Hᴴ H + noiseVar·I) w = Hᴴ e_delay
//
// where H is the convolution matrix of h. noiseVar = 0 gives the
// zero-forcing solution; a positive value trades residual ISI against
// noise enhancement. delay is the target overall latency in samples
// (a good default is (len(h)+nTaps)/2 - 1).
func DesignEqualizer(h []complex128, nTaps, delay int, noiseVar float64) ([]complex128, error) {
	if len(h) == 0 {
		return nil, fmt.Errorf("phy: empty channel response")
	}
	if nTaps < 1 {
		return nil, fmt.Errorf("phy: equalizer needs >= 1 tap, got %d", nTaps)
	}
	outLen := len(h) + nTaps - 1
	if delay < 0 || delay >= outLen {
		return nil, fmt.Errorf("phy: delay %d outside [0, %d)", delay, outLen)
	}
	if noiseVar < 0 {
		return nil, fmt.Errorf("phy: noise variance must be >= 0")
	}
	// A = HᴴH + noiseVar I  (nTaps × nTaps), b = Hᴴ e_delay.
	// H[r][c] = h[r-c] for r-c in [0, len(h)).
	hAt := func(r, c int) complex128 {
		k := r - c
		if k < 0 || k >= len(h) {
			return 0
		}
		return h[k]
	}
	a := make([][]complex128, nTaps)
	b := make([]complex128, nTaps)
	for i := 0; i < nTaps; i++ {
		a[i] = make([]complex128, nTaps)
		for j := 0; j < nTaps; j++ {
			var s complex128
			for r := 0; r < outLen; r++ {
				s += cmplx.Conj(hAt(r, i)) * hAt(r, j)
			}
			if i == j {
				s += complex(noiseVar, 0)
			}
			a[i][j] = s
		}
		b[i] = cmplx.Conj(hAt(delay, i))
	}
	w, err := solveComplex(a, b)
	if err != nil {
		return nil, fmt.Errorf("phy: equalizer design: %w", err)
	}
	return w, nil
}

// solveComplex solves the dense complex system A x = b by Gaussian
// elimination with partial pivoting. A and b are modified.
func solveComplex(a [][]complex128, b []complex128) ([]complex128, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := cmplx.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if m := cmplx.Abs(a[r][col]); m > best {
				pivot, best = r, m
			}
		}
		if best < 1e-15 {
			return nil, fmt.Errorf("phy: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]complex128, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// EqualizeTo convolves rx with the equalizer taps and compensates the
// design delay, writing into dst (grown only when its capacity is
// short) a slice aligned with the pre-channel signal. dst must not
// overlap rx. The inner loop clamps the tap range up front instead of
// bounds-checking per tap, summing in ascending tap order.
func EqualizeTo(dst, rx, w []complex128, delay int) []complex128 {
	out := dsp.GrowComplex(dst, len(rx))
	for n := range rx {
		kMin := n + delay - len(rx) + 1
		if kMin < 0 {
			kMin = 0
		}
		kMax := n + delay
		if kMax > len(w)-1 {
			kMax = len(w) - 1
		}
		var acc complex128
		for k := kMin; k <= kMax; k++ {
			acc += w[k] * rx[n+delay-k]
		}
		out[n] = acc
	}
	return out
}
