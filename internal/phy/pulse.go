package phy

import (
	"fmt"
	"math"

	"mmtag/internal/dsp"
)

// RRCTaps designs a root-raised-cosine pulse with roll-off beta in
// [0, 1], truncated to spanSymbols symbol periods at sps samples per
// symbol, normalized to unit energy. The tap count is
// spanSymbols*sps + 1 (odd, symmetric).
func RRCTaps(beta float64, sps, spanSymbols int) ([]float64, error) {
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("phy: RRC roll-off must be in [0,1], got %g", beta)
	}
	if sps < 2 || spanSymbols < 1 {
		return nil, fmt.Errorf("phy: RRC needs sps >= 2 and span >= 1, got %d, %d", sps, spanSymbols)
	}
	n := spanSymbols*sps + 1
	mid := (n - 1) / 2
	h := make([]float64, n)
	for i := range h {
		t := float64(i-mid) / float64(sps) // time in symbol periods
		h[i] = rrc(t, beta)
	}
	// Unit energy.
	e := 0.0
	for _, v := range h {
		e += v * v
	}
	scale := 1 / math.Sqrt(e)
	for i := range h {
		h[i] *= scale
	}
	return h, nil
}

// rrc evaluates the root-raised-cosine impulse response at time t
// (symbol periods) for roll-off beta, handling the singular points.
func rrc(t, beta float64) float64 {
	if t == 0 {
		return 1 - beta + 4*beta/math.Pi
	}
	if beta > 0 {
		if s := math.Abs(t) - 1/(4*beta); math.Abs(s) < 1e-9 {
			a := (1 + 2/math.Pi) * math.Sin(math.Pi/(4*beta))
			b := (1 - 2/math.Pi) * math.Cos(math.Pi/(4*beta))
			return beta / math.Sqrt2 * (a + b)
		}
	}
	num := math.Sin(math.Pi*t*(1-beta)) + 4*beta*t*math.Cos(math.Pi*t*(1+beta))
	den := math.Pi * t * (1 - 16*beta*beta*t*t)
	return num / den
}

// Shaper performs pulse-shaped modulation: symbol points are upsampled
// and filtered by an RRC pulse. The matching Matched filter at the
// receiver completes a raised-cosine (ISI-free) cascade.
type Shaper struct {
	fir *dsp.FIR
	sps int
}

// NewShaper builds a pulse shaper with the given roll-off, samples per
// symbol and span.
func NewShaper(beta float64, sps, spanSymbols int) (*Shaper, error) {
	taps, err := RRCTaps(beta, sps, spanSymbols)
	if err != nil {
		return nil, err
	}
	return &Shaper{fir: dsp.NewFIR(taps), sps: sps}, nil
}

// SamplesPerSymbol returns the oversampling factor.
func (s *Shaper) SamplesPerSymbol() int { return s.sps }

// Delay returns the one-filter group delay in samples.
func (s *Shaper) Delay() int { return (s.fir.Len() - 1) / 2 }

// ShapeTo converts symbol points into a pulse-shaped waveform of length
// len(symbols)*sps + 2*Delay(), written into dst (grown only when its
// capacity is short) with upsampling scratch borrowed from ar; a nil ar
// allocates the scratch fresh. The tail is long enough that after the
// receive MatchedFilterTo every symbol centre (first at 2*Delay())
// exists. dst must not overlap symbols.
func (s *Shaper) ShapeTo(dst, symbols []complex128, ar *dsp.Arena) []complex128 {
	n := len(symbols)*s.sps + 2*s.Delay()
	up := ar.ComplexZeroed(n)
	for i, v := range symbols {
		up[i*s.sps] = v
	}
	out := s.fir.FilterTo(dst, up)
	ar.PutComplex(up)
	return out
}

// MatchedFilterTo applies the same RRC as a matched filter, writing
// into dst (grown only when its capacity is short). dst must not
// overlap x.
func (s *Shaper) MatchedFilterTo(dst, x []complex128) []complex128 {
	return s.fir.FilterTo(dst, x)
}

// SampleTo extracts the symbol decision points of a matched-filtered
// waveform into dst[:0] and returns it, given the index of the first
// symbol centre (the cascade group delay for a ShapeTo->MatchedFilterTo
// chain is 2*Delay()). dst is reallocated only when its capacity is
// short of nSymbols. Centres past the end of x are dropped.
func (s *Shaper) SampleTo(dst, x []complex128, firstCentre, nSymbols int) []complex128 {
	if cap(dst) < nSymbols {
		dst = make([]complex128, 0, nSymbols)
	}
	dst = dst[:0]
	for k := 0; k < nSymbols; k++ {
		idx := firstCentre + k*s.sps
		if idx < 0 || idx >= len(x) {
			break
		}
		dst = append(dst, x[idx])
	}
	return dst
}
