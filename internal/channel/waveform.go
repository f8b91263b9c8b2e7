package channel

import (
	"fmt"
	"math"
	"math/rand"

	"mmtag/internal/dsp"
	"mmtag/internal/fastrand"
)

// AWGN adds complex white Gaussian noise with the given total noise power
// (variance split evenly between I and Q) to x in place and returns x.
// The rng makes runs reproducible. It must be a *fastrand.Rand, which
// runs awgnFused, or a *rand.Rand, which runs the plain loop the fused
// body is tested against. Both draw the same Gaussians in the same
// order, so the two generators seeded alike add bit-identical noise.
// Any other RNG panics (see fastrand.RNG).
func AWGN(rng fastrand.RNG, x []complex128, noisePower float64) []complex128 {
	if noisePower < 0 {
		panic("channel: noise power must be >= 0")
	}
	sigma := math.Sqrt(noisePower / 2)
	switch r := rng.(type) {
	case *fastrand.Rand:
		awgnFused(r, x, sigma)
	case *rand.Rand:
		for i := range x {
			x[i] += complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
	default:
		panic("channel: AWGN needs a *rand.Rand or a *fastrand.Rand")
	}
	return x
}

// awgnFused is AWGN's body for the devirtualized fastrand generator:
// the generator runs through a detached fastrand.Core with the
// ziggurat accept test inlined, so the common path is free of calls
// entirely (NormSlow handles the <1% rejections).
func awgnFused(rng *fastrand.Rand, x []complex128, sigma float64) {
	core := rng.Core()
	for i := range x {
		j1 := int32(core.Uint32())
		x1 := float64(j1) * float64(fastrand.WN[j1&0x7F])
		if fastrand.AbsInt32(j1) >= fastrand.KN[j1&0x7F] {
			rng.SetCore(core)
			x1 = rng.NormSlow(j1)
			core = rng.Core()
		}
		j2 := int32(core.Uint32())
		x2 := float64(j2) * float64(fastrand.WN[j2&0x7F])
		if fastrand.AbsInt32(j2) >= fastrand.KN[j2&0x7F] {
			rng.SetCore(core)
			x2 = rng.NormSlow(j2)
			core = rng.Core()
		}
		x[i] += complex(x1*sigma, x2*sigma)
	}
	rng.SetCore(core)
}

// Tap is one discrete multipath component.
type Tap struct {
	DelaySamples int
	Gain         complex128
}

// RicianTaps draws a small-scale multipath profile: a unit-power LOS tap
// at delay 0 plus nTaps scattered taps with total power 1/K (Rician
// K-factor, linear) and exponentially decaying delay profile. mmWave
// indoor links are strongly Rician (K of 7-15 dB) because the narrow
// beams suppress most scatterers.
func RicianTaps(rng fastrand.RNG, kFactor float64, nTaps, maxDelay int) ([]Tap, error) {
	if kFactor <= 0 {
		return nil, fmt.Errorf("channel: K-factor must be positive, got %g", kFactor)
	}
	if nTaps < 0 || maxDelay < 1 {
		return nil, fmt.Errorf("channel: invalid tap configuration (%d taps, max delay %d)", nTaps, maxDelay)
	}
	taps := []Tap{{DelaySamples: 0, Gain: 1}}
	if nTaps == 0 {
		return taps, nil
	}
	// Scattered power budget, split across taps with exponential decay.
	total := 1 / kFactor
	weights := make([]float64, nTaps)
	wSum := 0.0
	for i := range weights {
		weights[i] = math.Exp(-float64(i))
		wSum += weights[i]
	}
	for i := 0; i < nTaps; i++ {
		p := total * weights[i] / wSum
		sigma := math.Sqrt(p / 2)
		g := complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		d := 1 + rng.Intn(maxDelay)
		taps = append(taps, Tap{DelaySamples: d, Gain: g})
	}
	return taps, nil
}

// ApplyTapsTo convolves x with a sparse tap set, writing len(x) samples
// into dst (grown only when its capacity is short). dst must not
// overlap x.
func ApplyTapsTo(dst, x []complex128, taps []Tap) []complex128 {
	out := dsp.GrowComplex(dst, len(x))
	clear(out)
	for _, tp := range taps {
		if tp.DelaySamples < 0 {
			panic("channel: negative tap delay")
		}
		for i := tp.DelaySamples; i < len(x); i++ {
			out[i] += tp.Gain * x[i-tp.DelaySamples]
		}
	}
	return out
}
