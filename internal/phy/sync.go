package phy

import (
	"fmt"
	"math"

	"mmtag/internal/dsp"
)

// BestTimingOffset searches the sps candidate sampling phases of a
// matched-filtered waveform and returns the offset in [0, sps) whose
// decision points have the highest mean energy — the classic
// maximum-energy symbol timing estimator.
func BestTimingOffset(x []complex128, sps int) (int, error) {
	if sps < 2 {
		return 0, fmt.Errorf("phy: sps must be >= 2, got %d", sps)
	}
	if len(x) < sps {
		return 0, fmt.Errorf("phy: waveform shorter than one symbol")
	}
	best, bestE := 0, -1.0
	for off := 0; off < sps; off++ {
		e, n := 0.0, 0
		for i := off; i < len(x); i += sps {
			e += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			n++
		}
		if n > 0 {
			e /= float64(n)
		}
		if e > bestE {
			best, bestE = off, e
		}
	}
	return best, nil
}

// FrameSync locates a known preamble in a received waveform using
// normalized cross-correlation and returns the sample index where the
// preamble starts, along with the correlation score in [0, 1].
// A score below the caller's threshold means "no frame".
func FrameSync(x, preamble []complex128) (int, float64) {
	return dsp.NormalizedPeak(x, preamble, nil)
}

// CarrierPhase estimates the residual carrier phase (radians) of a block
// of decision-directed symbols: the angle of the sum of rx * conj(ideal
// nearest point). Used after coarse gain equalization to track slow
// phase drift.
func CarrierPhase(c *Constellation, rx []complex128) float64 {
	var accRe, accIm float64
	for _, r := range rx {
		p := c.Point(c.Nearest(r))
		// r * conj(p)
		accRe += real(r)*real(p) + imag(r)*imag(p)
		accIm += imag(r)*real(p) - real(r)*imag(p)
	}
	return math.Atan2(accIm, accRe)
}

// Derotate applies a phase correction of -phase radians to x in place
// and returns x.
func Derotate(x []complex128, phase float64) []complex128 {
	c, s := math.Cos(-phase), math.Sin(-phase)
	rot := complex(c, s)
	for i := range x {
		x[i] *= rot
	}
	return x
}

// CFOEstimate estimates a small carrier frequency offset (Hz) from a
// repeated training sequence: two identical halves of length halfLen
// separated by halfLen samples differ only by the CFO-induced rotation
// (the Schmidl-Cox style estimator).
func CFOEstimate(x []complex128, halfLen int, sampleRate float64) (float64, error) {
	if halfLen < 1 || len(x) < 2*halfLen {
		return 0, fmt.Errorf("phy: need at least 2*halfLen samples, got %d", len(x))
	}
	var accRe, accIm float64
	for i := 0; i < halfLen; i++ {
		a := x[i]
		b := x[i+halfLen]
		// b * conj(a)
		accRe += real(b)*real(a) + imag(b)*imag(a)
		accIm += imag(b)*real(a) - real(b)*imag(a)
	}
	phase := math.Atan2(accIm, accRe)
	return phase / (2 * math.Pi) * sampleRate / float64(halfLen), nil
}
