package dsp

import "math"

// Periodogram returns the windowed periodogram power spectral estimate of
// x in natural FFT bin order, normalized so that the sum over bins equals
// the signal's average power for a rectangular window.
func Periodogram(x []complex128, w Window) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	coeffs := w.Coefficients(n)
	ar := GetArena()
	buf := ar.Complex(n)
	copy(buf, x)
	ApplyWindow(buf, coeffs)
	spec := FFTTo(buf, buf)
	// Normalize by N * sum(w^2) so the bin sum equals the average power
	// for a rectangular window (Parseval).
	var wss float64
	for _, c := range coeffs {
		wss += c * c
	}
	out := make([]float64, n)
	for i, v := range spec {
		out[i] = (real(v)*real(v) + imag(v)*imag(v)) / (float64(n) * wss)
	}
	ar.PutComplex(buf)
	PutArena(ar)
	return out
}

// Welch estimates the power spectral density with Welch's method:
// segments of length segLen with 50% overlap, windowed and averaged.
// The result has segLen bins in natural order. Returns nil if x is
// shorter than segLen or segLen < 2.
func Welch(x []complex128, segLen int, w Window) []float64 {
	if segLen < 2 || len(x) < segLen {
		return nil
	}
	hop := segLen / 2
	coeffs := w.Coefficients(segLen)
	var wss float64
	for _, c := range coeffs {
		wss += c * c
	}
	acc := make([]float64, segLen)
	segs := 0
	ar := GetArena()
	buf := ar.Complex(segLen)
	for start := 0; start+segLen <= len(x); start += hop {
		copy(buf, x[start:start+segLen])
		ApplyWindow(buf, coeffs)
		spec := FFTTo(buf, buf)
		for i, v := range spec {
			acc[i] += (real(v)*real(v) + imag(v)*imag(v)) / (float64(segLen) * wss)
		}
		segs++
	}
	ar.PutComplex(buf)
	PutArena(ar)
	for i := range acc {
		acc[i] /= float64(segs)
	}
	return acc
}

// DominantFrequency returns the frequency (Hz) of the strongest spectral
// component of x at the given sample rate. The signal is Hann-windowed and
// the peak is refined by parabolic interpolation on the log magnitude,
// giving sub-bin accuracy for tones.
func DominantFrequency(x []complex128, sampleRate float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	buf := make([]complex128, n)
	copy(buf, x)
	ApplyWindow(buf, Hann.Coefficients(n))
	spec := FFTTo(buf, buf)
	mags := make([]float64, n)
	best, bestMag := 0, -1.0
	for i, v := range spec {
		mags[i] = real(v)*real(v) + imag(v)*imag(v)
		if mags[i] > bestMag {
			best, bestMag = i, mags[i]
		}
	}
	// Parabolic interpolation on log magnitude around the peak.
	delta := 0.0
	if n >= 3 {
		im1 := (best - 1 + n) % n
		ip1 := (best + 1) % n
		a := math.Log(mags[im1] + 1e-300)
		b := math.Log(mags[best] + 1e-300)
		c := math.Log(mags[ip1] + 1e-300)
		den := a - 2*b + c
		if math.Abs(den) > 1e-12 {
			delta = 0.5 * (a - c) / den
			if delta > 0.5 {
				delta = 0.5
			} else if delta < -0.5 {
				delta = -0.5
			}
		}
	}
	k := float64(best) + delta
	if k > float64(n)/2 {
		k -= float64(n)
	}
	return k * sampleRate / float64(n)
}

// SNREstimate estimates the signal-to-noise ratio (linear) of a tone
// buried in noise: signal power from the strongest bin neighbourhood
// (±width bins), noise power from the remaining bins.
func SNREstimate(x []complex128, width int) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	spec := FFTTo(nil, x)
	p := make([]float64, n)
	best, bestMag := 0, -1.0
	for i, v := range spec {
		p[i] = real(v)*real(v) + imag(v)*imag(v)
		if p[i] > bestMag {
			best, bestMag = i, p[i]
		}
	}
	var sig, noise float64
	var noiseBins int
	for i := range p {
		d := i - best
		if d < 0 {
			d = -d
		}
		if d > n/2 {
			d = n - d
		}
		if d <= width {
			sig += p[i]
		} else {
			noise += p[i]
			noiseBins++
		}
	}
	if noiseBins == 0 || noise == 0 {
		return math.Inf(1)
	}
	// Remove the noise contribution inside the signal bins.
	perBin := noise / float64(noiseBins)
	sigBins := 2*width + 1
	sig -= perBin * float64(sigBins)
	if sig <= 0 {
		return 0
	}
	return sig / noise
}
