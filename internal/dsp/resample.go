package dsp

import "fmt"

// Resampler performs rational-ratio sample-rate conversion (L/M) with a
// windowed-sinc anti-aliasing filter evaluated polyphase-style: the
// signal is conceptually upsampled by L, lowpass filtered at
// min(π/L, π/M), and decimated by M, without materializing the
// intermediate rate.
type Resampler struct {
	l, m  int
	taps  []float64 // prototype lowpass at the upsampled rate
	delay int       // prototype group delay in upsampled samples
}

// NewResampler builds an L/M resampler. L and M must be positive; the
// prototype length scales with max(L, M) to keep the per-branch tap
// count constant.
func NewResampler(l, m int) (*Resampler, error) {
	if l < 1 || m < 1 {
		return nil, fmt.Errorf("dsp: resampler factors must be positive, got %d/%d", l, m)
	}
	g := gcd(l, m)
	l, m = l/g, m/g
	if l == 1 && m == 1 {
		// Identity conversion: no filtering needed.
		return &Resampler{l: 1, m: 1}, nil
	}
	// Prototype lowpass at the virtual rate fs*L: cutoff at the
	// narrower of the input and output Nyquists.
	branchTaps := 12 // taps per output sample
	n := branchTaps*maxInt(l, m) + 1
	if n%2 == 0 {
		n++
	}
	cutoff := 0.5 / float64(maxInt(l, m)) // cycles/sample at the virtual rate
	fir, err := DesignLowpass(cutoff, 1, n, BlackmanHarris)
	if err != nil {
		return nil, err
	}
	taps := fir.taps // fir is discarded; scale its taps in place
	// The lowpass has unity DC gain; upsampling inserts L-1 zeros, so
	// scale by L to preserve amplitude.
	for i := range taps {
		taps[i] *= float64(l)
	}
	return &Resampler{l: l, m: m, taps: taps, delay: (n - 1) / 2}, nil
}

// Ratio returns the reduced conversion ratio (L, M).
func (r *Resampler) Ratio() (int, int) { return r.l, r.m }

// OutputLen returns the number of output samples produced for n input
// samples.
func (r *Resampler) OutputLen(n int) int { return (n*r.l + r.m - 1) / r.m }

// ResampleTo converts x to the new rate, writing OutputLen(len(x))
// samples into dst (grown only when its capacity is short) and
// returning the output slice. The output is time-aligned with the input
// (the prototype group delay is compensated); edges are zero-padded.
// dst must not overlap x.
func (r *Resampler) ResampleTo(dst, x []complex128) []complex128 {
	if r.l == 1 && r.m == 1 {
		out := GrowComplex(dst, len(x))
		copy(out, x)
		return out
	}
	nOut := r.OutputLen(len(x))
	out := GrowComplex(dst, nOut)
	for k := 0; k < nOut; k++ {
		// Output sample k sits at upsampled index k*M; the filter is
		// centred there (delay-compensated).
		centre := k * r.m
		var acc complex128
		// Only every L-th upsampled sample is nonzero: input index
		// i corresponds to upsampled index i*L.
		// taps index: t = centre + delay - i*L must lie in [0, len).
		tMax := centre + r.delay
		iMin := (tMax - len(r.taps) + 1 + r.l - 1) / r.l
		if iMin < 0 {
			iMin = 0
		}
		for i := iMin; i < len(x); i++ {
			t := tMax - i*r.l
			if t < 0 {
				break
			}
			acc += x[i] * complex(r.taps[t], 0)
		}
		out[k] = acc
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
