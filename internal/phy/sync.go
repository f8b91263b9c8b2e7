package phy

import (
	"fmt"
	"math"
)

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
