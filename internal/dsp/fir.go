package dsp

import (
	"fmt"
	"math"
	"sync"
)

// FIR is a finite-impulse-response filter with real taps, applicable to
// complex signals. The zero value is unusable; construct with a design
// function or NewFIR.
//
// Tap ownership: the filter owns its tap vector exclusively. NewFIR
// copies its argument (the caller keeps its slice), Taps returns a copy
// (the caller may mutate it freely), and Clone duplicates a filter with
// a single copy — prefer it over the NewFIR(f.Taps()) reload idiom,
// which copies the taps twice.
type FIR struct {
	taps []float64
	// state holds the last len(taps)-1 input samples for streaming use.
	state []complex128

	// Cached frequency-domain taps for the overlap-save FilterTo path,
	// keyed by FFT size. Guarded by specMu so concurrent FilterTo calls
	// on a shared filter stay race-free; a published spec slice is
	// never mutated, only replaced.
	specMu   sync.Mutex
	specSize int
	spec     []complex128
}

// NewFIR wraps an explicit tap vector. It copies taps; the caller's
// slice is not retained.
func NewFIR(taps []float64) *FIR {
	t := make([]float64, len(taps))
	copy(t, taps)
	return firOwned(t)
}

// firOwned wraps a tap vector the caller hands over — the design
// functions build fresh tap slices and use this to skip NewFIR's
// defensive copy.
func firOwned(taps []float64) *FIR {
	return &FIR{taps: taps, state: make([]complex128, maxInt(len(taps)-1, 0))}
}

// Clone returns an independent filter with the same taps and zeroed
// streaming state. It copies the taps once, unlike NewFIR(f.Taps()).
func (f *FIR) Clone() *FIR {
	t := make([]float64, len(f.taps))
	copy(t, f.taps)
	return firOwned(t)
}

// Taps returns a copy of the filter's tap vector; mutating it does not
// affect the filter.
func (f *FIR) Taps() []float64 {
	t := make([]float64, len(f.taps))
	copy(t, f.taps)
	return t
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.taps) }

// GroupDelay returns the filter's group delay in samples (linear-phase
// symmetric designs only).
func (f *FIR) GroupDelay() float64 { return float64(len(f.taps)-1) / 2 }

// Reset clears the streaming state.
func (f *FIR) Reset() {
	for i := range f.state {
		f.state[i] = 0
	}
}

// firFFTMinTaps is the tap count above which FilterTo switches from
// direct form (O(n·k)) to overlap-save FFT convolution (O(n·log k)).
// Below it the FFT constant factors lose to the direct inner loop.
const firFFTMinTaps = 64

// FilterTo convolves x with the taps into dst, returning len(x) output
// samples (the "same" convolution mode, zero initial state); dst grows
// only when cap(dst) < len(x) and must not overlap x. Streaming state is
// not used or modified. Long filters (>= firFFTMinTaps taps on inputs
// at least that long) run as overlap-save FFT convolution — same result
// to ~1e-15 relative, not bit-identical to direct form.
func (f *FIR) FilterTo(dst, x []complex128) []complex128 {
	out := GrowComplex(dst, len(x))
	if len(f.taps) >= firFFTMinTaps && len(x) >= firFFTMinTaps {
		f.filterFFT(out, x)
	} else {
		f.filterDirect(out, x)
	}
	return out
}

// filterDirect is the O(n·k) form. The inner loop runs k over
// [0, min(n, len(taps)-1)] so the per-tap bounds branch of the old
// implementation is gone; summation order (ascending k) is unchanged,
// keeping results bit-identical.
func (f *FIR) filterDirect(out, x []complex128) {
	taps := f.taps
	kt := len(taps) - 1
	for n := range x {
		kMax := n
		if kMax > kt {
			kMax = kt
		}
		var acc complex128
		for k := 0; k <= kMax; k++ {
			acc += complex(taps[k], 0) * x[n-k]
		}
		out[n] = acc
	}
}

// filterFFT is overlap-save frequency-domain convolution: fixed-size
// blocks of input (with k-1 samples of history) are transformed,
// multiplied by the cached tap spectrum, and inverse-transformed; the
// first k-1 samples of each block are time-aliased and discarded.
func (f *FIR) filterFFT(out, x []complex128) {
	k := len(f.taps)
	m := NextPow2(4 * k)
	if full := NextPow2(len(x) + k - 1); full < m {
		m = full
	}
	step := m - (k - 1) // valid output samples per block
	p := PlanFFT(m)
	spec := f.tapSpectrum(m, p)
	scale := complex(1/float64(m), 0)
	ar := GetArena()
	seg := ar.Complex(m)
	for pos := 0; pos < len(x); pos += step {
		start := pos - (k - 1)
		for i := 0; i < m; i++ {
			j := start + i
			if j >= 0 && j < len(x) {
				seg[i] = x[j]
			} else {
				seg[i] = 0
			}
		}
		p.radix2To(seg, seg, false)
		for i := range seg {
			seg[i] *= spec[i]
		}
		p.radix2To(seg, seg, true)
		nOut := step
		if pos+nOut > len(x) {
			nOut = len(x) - pos
		}
		for i := 0; i < nOut; i++ {
			out[pos+i] = seg[k-1+i] * scale
		}
	}
	ar.PutComplex(seg)
	PutArena(ar)
}

// tapSpectrum returns the m-point DFT of the taps, computing and
// caching it on first use for each size.
func (f *FIR) tapSpectrum(m int, p *Plan) []complex128 {
	f.specMu.Lock()
	defer f.specMu.Unlock()
	if f.specSize == m {
		return f.spec
	}
	spec := make([]complex128, m)
	for i, t := range f.taps {
		spec[i] = complex(t, 0)
	}
	p.radix2To(spec, spec, false)
	f.spec, f.specSize = spec, m
	return spec
}

// Process filters a streaming block, carrying state across calls so that
// concatenated blocks produce the same output as one long FilterTo call.
func (f *FIR) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	ns := len(f.state)
	for n := range x {
		var acc complex128
		for k, t := range f.taps {
			idx := n - k
			var s complex128
			if idx >= 0 {
				s = x[idx]
			} else if ns+idx >= 0 {
				s = f.state[ns+idx]
			}
			acc += complex(t, 0) * s
		}
		out[n] = acc
	}
	// Save the trailing samples as the next call's history.
	if ns > 0 {
		if len(x) >= ns {
			copy(f.state, x[len(x)-ns:])
		} else {
			copy(f.state, f.state[len(x):])
			copy(f.state[ns-len(x):], x)
		}
	}
	return out
}

// FrequencyResponse evaluates the filter's complex frequency response at
// the normalized frequency fNorm in cycles/sample (range [-0.5, 0.5]).
func (f *FIR) FrequencyResponse(fNorm float64) complex128 {
	var re, im float64
	for k, t := range f.taps {
		phi := -2 * math.Pi * fNorm * float64(k)
		re += t * math.Cos(phi)
		im += t * math.Sin(phi)
	}
	return complex(re, im)
}

// DesignLowpass designs a windowed-sinc lowpass FIR with the given cutoff
// (Hz), sample rate (Hz), tap count, and window. Taps must be odd and
// positive for a symmetric linear-phase design. The passband gain is
// normalized to exactly 1 at DC.
func DesignLowpass(cutoffHz, sampleRate float64, taps int, w Window) (*FIR, error) {
	if taps < 1 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: lowpass taps must be odd and positive, got %d", taps)
	}
	if cutoffHz <= 0 || cutoffHz >= sampleRate/2 {
		return nil, fmt.Errorf("dsp: cutoff %g Hz outside (0, %g)", cutoffHz, sampleRate/2)
	}
	fc := cutoffHz / sampleRate // normalized cutoff, cycles/sample
	mid := (taps - 1) / 2
	h := make([]float64, taps)
	win := w.Coefficients(taps)
	for i := 0; i < taps; i++ {
		m := float64(i - mid)
		var s float64
		if m == 0 {
			s = 2 * fc
		} else {
			s = math.Sin(2*math.Pi*fc*m) / (math.Pi * m)
		}
		h[i] = s * win[i]
	}
	// Normalize DC gain to 1.
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	for i := range h {
		h[i] /= sum
	}
	return firOwned(h), nil
}

// DesignHighpass designs a windowed-sinc highpass FIR via spectral
// inversion of the matching lowpass. Gain at Nyquist is normalized to 1.
func DesignHighpass(cutoffHz, sampleRate float64, taps int, w Window) (*FIR, error) {
	lp, err := DesignLowpass(cutoffHz, sampleRate, taps, w)
	if err != nil {
		return nil, err
	}
	h := lp.taps // lp is discarded below; take its taps without a copy
	mid := (taps - 1) / 2
	for i := range h {
		h[i] = -h[i]
	}
	h[mid] += 1
	// Normalize gain at Nyquist (alternating-sign sum) to 1.
	sum := 0.0
	for i, v := range h {
		if i%2 == 0 {
			sum += v
		} else {
			sum -= v
		}
	}
	if math.Abs(sum) > 1e-12 {
		for i := range h {
			h[i] /= sum
		}
	}
	return firOwned(h), nil
}

// DesignBandpass designs a windowed-sinc bandpass FIR between lowHz and
// highHz by subtracting two lowpasses, normalized to unit gain at the
// band centre.
func DesignBandpass(lowHz, highHz, sampleRate float64, taps int, w Window) (*FIR, error) {
	if lowHz >= highHz {
		return nil, fmt.Errorf("dsp: bandpass requires low < high, got %g >= %g", lowHz, highHz)
	}
	hi, err := DesignLowpass(highHz, sampleRate, taps, w)
	if err != nil {
		return nil, err
	}
	lo, err := DesignLowpass(lowHz, sampleRate, taps, w)
	if err != nil {
		return nil, err
	}
	hh, hl := hi.taps, lo.taps // read-only; hi and lo are discarded
	h := make([]float64, taps)
	for i := range h {
		h[i] = hh[i] - hl[i]
	}
	f := firOwned(h)
	// Normalize to unit magnitude at the geometric band centre.
	centre := math.Sqrt(lowHz*highHz) / sampleRate
	g := cmplxAbs(f.FrequencyResponse(centre))
	if g > 1e-12 {
		for i := range f.taps {
			f.taps[i] /= g
		}
	}
	return f, nil
}

// MovingAverage returns an n-tap moving-average (boxcar) filter with unit
// DC gain. It panics for n < 1.
func MovingAverage(n int) *FIR {
	if n < 1 {
		panic("dsp: moving average length must be >= 1")
	}
	h := make([]float64, n)
	for i := range h {
		h[i] = 1 / float64(n)
	}
	return firOwned(h)
}

// DCBlocker is a single-pole IIR DC-removal filter:
//
//	y[n] = x[n] - x[n-1] + r*y[n-1]
//
// with r close to 1. It is the canonical low-cost structure an AP uses to
// strip the DC term produced by self-interference after downconversion.
type DCBlocker struct {
	r      float64
	xPrev  complex128
	yPrev  complex128
	primed bool
}

// NewDCBlocker returns a DC blocker with pole radius r in (0, 1).
func NewDCBlocker(r float64) (*DCBlocker, error) {
	if r <= 0 || r >= 1 {
		return nil, fmt.Errorf("dsp: DC blocker pole radius %g outside (0,1)", r)
	}
	return &DCBlocker{r: r}, nil
}

// Process filters a block in streaming fashion, carrying state across
// calls. It allocates the output slice.
func (d *DCBlocker) Process(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		if !d.primed {
			// Initialize history to the first sample so a constant
			// input settles to zero output without a start-up step.
			d.xPrev = v
			d.primed = true
		}
		y := v - d.xPrev + complex(d.r, 0)*d.yPrev
		d.xPrev = v
		d.yPrev = y
		out[i] = y
	}
	return out
}

// Reset clears the blocker's state.
func (d *DCBlocker) Reset() {
	d.xPrev, d.yPrev, d.primed = 0, 0, false
}

func cmplxAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
