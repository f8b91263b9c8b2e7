package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmtag/internal/dsp"
)

// EstimateCIR estimates the channel impulse response from a received
// block that begins with a known training sequence: the correlative
// channel sounder. For a training sequence with sharp autocorrelation
// (PN/preamble symbols),
//
//	h[k] ≈ sum_n rx[n+k] * conj(train[n]) / ||train||²
//
// for lags k in [0, maxLag). rx must contain at least
// len(train)+maxLag-1 samples.
func EstimateCIR(rx, train []complex128, maxLag int) ([]complex128, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("phy: empty training sequence")
	}
	if maxLag < 1 {
		return nil, fmt.Errorf("phy: maxLag must be >= 1, got %d", maxLag)
	}
	if len(rx) < len(train)+maxLag-1 {
		return nil, fmt.Errorf("phy: need %d samples, got %d", len(train)+maxLag-1, len(rx))
	}
	e := dsp.Energy(train)
	if e == 0 {
		return nil, fmt.Errorf("phy: zero-energy training sequence")
	}
	corr := dsp.CrossCorrelateTo(nil, rx[:len(train)+maxLag-1], train, nil)
	h := make([]complex128, maxLag)
	inv := complex(1/e, 0)
	for k := 0; k < maxLag && k < len(corr); k++ {
		h[k] = corr[k] * inv
	}
	return h, nil
}

// EstimateCIRWithOffset jointly estimates the channel taps and a
// constant offset by least squares:
//
//	rx[n] ≈ sum_k h[k] train[n-k] + c
//
// The joint solve matters for backscatter readers: the uncancelled
// static (self-interference) term and the channel must be separated in
// one regression, or the offset error leaks into the tap estimates.
func EstimateCIRWithOffset(rx, train []complex128, maxLag int) ([]complex128, complex128, error) {
	if len(train) == 0 {
		return nil, 0, fmt.Errorf("phy: empty training sequence")
	}
	if maxLag < 1 {
		return nil, 0, fmt.Errorf("phy: maxLag must be >= 1, got %d", maxLag)
	}
	if len(train) < 2*maxLag+2 {
		return nil, 0, fmt.Errorf("phy: training too short (%d) for %d taps + offset", len(train), maxLag)
	}
	if len(rx) < len(train) {
		return nil, 0, fmt.Errorf("phy: need %d samples, got %d", len(train), len(rx))
	}
	// Regressors: train[n-k] for k in [0, maxLag) plus a column of ones.
	dim := maxLag + 1
	a := make([][]complex128, dim)
	b := make([]complex128, dim)
	for k := range a {
		a[k] = make([]complex128, dim)
	}
	reg := func(n, k int) complex128 {
		if k == maxLag {
			return 1
		}
		return train[n-k]
	}
	for n := maxLag - 1; n < len(train); n++ {
		for k := 0; k < dim; k++ {
			xk := cmplx.Conj(reg(n, k))
			b[k] += xk * rx[n]
			for j := 0; j < dim; j++ {
				a[k][j] += xk * reg(n, j)
			}
		}
	}
	sol, err := solveComplex(a, b)
	if err != nil {
		return nil, 0, fmt.Errorf("phy: CIR+offset least squares: %w", err)
	}
	return sol[:maxLag], sol[maxLag], nil
}

// PowerDelayProfile returns |h[k]|² for a CIR estimate.
func PowerDelayProfile(h []complex128) []float64 {
	out := make([]float64, len(h))
	for i, v := range h {
		out[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return out
}

// RMSDelaySpread returns the root-mean-square delay spread in seconds
// of a CIR sampled at sampleRate, the scalar that determines whether a
// link needs equalization (symbols shorter than the spread smear into
// each other).
func RMSDelaySpread(h []complex128, sampleRate float64) (float64, error) {
	if sampleRate <= 0 {
		return 0, fmt.Errorf("phy: sample rate must be positive")
	}
	pdp := PowerDelayProfile(h)
	var total, mean float64
	for k, p := range pdp {
		total += p
		mean += float64(k) * p
	}
	if total == 0 {
		return 0, fmt.Errorf("phy: empty power delay profile")
	}
	mean /= total
	var second float64
	for k, p := range pdp {
		d := float64(k) - mean
		second += d * d * p
	}
	return math.Sqrt(second/total) / sampleRate, nil
}
