// Package phy implements the physical-layer toolkit shared by the mmTag
// access point and the simulator: constellations, bit mapping and
// slicing, gain and phase correction, carrier-offset estimation, channel
// sounding, linear equalization, and bit-error-rate measurement.
//
// The constellation abstraction is deliberately generic ([]complex128
// points): the tag's backscatter alphabets (vanatta.StateSet) plug in
// directly, as do classical alphabets for baseline comparisons.
//
// DESIGN.md: section 1 (modem reconstruction), section 3 (module inventory)
// and section 6 (waveform fidelity level).
package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmtag/internal/dsp"
)

// Constellation is a symbol alphabet with a power-of-two size. Symbol
// index i carries BitsPerSymbol bits.
type Constellation struct {
	points []complex128
	bits   int
	name   string
	// grid/diamond, when non-nil, hold structure-aware slicer data
	// equivalent to the linear minimum-distance scan (see
	// buildFastSlicer). At most one is set.
	grid    *gridData
	diamond *diamondData
}

// NewConstellation wraps a point set. The size must be a power of two
// and at least 2. Points are copied.
func NewConstellation(name string, points []complex128) (*Constellation, error) {
	n := len(points)
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("phy: constellation size must be a power of two >= 2, got %d", n)
	}
	p := make([]complex128, n)
	copy(p, points)
	bits := 0
	for s := n; s > 1; s >>= 1 {
		bits++
	}
	c := &Constellation{points: p, bits: bits, name: name}
	c.grid, c.diamond = buildFastSlicer(p)
	return c, nil
}

// Name returns the constellation's name.
func (c *Constellation) Name() string { return c.name }

// Size returns the alphabet size.
func (c *Constellation) Size() int { return len(c.points) }

// BitsPerSymbol returns log2(Size).
func (c *Constellation) BitsPerSymbol() int { return c.bits }

// Point returns the complex point for symbol index i.
func (c *Constellation) Point(i int) complex128 {
	if i < 0 || i >= len(c.points) {
		panic(fmt.Sprintf("phy: symbol index %d out of range", i))
	}
	return c.points[i]
}

// Points returns a copy of the point set.
func (c *Constellation) Points() []complex128 {
	out := make([]complex128, len(c.points))
	copy(out, c.points)
	return out
}

// MeanPower returns the average symbol energy (equiprobable symbols).
func (c *Constellation) MeanPower() float64 {
	s := 0.0
	for _, p := range c.points {
		s += real(p)*real(p) + imag(p)*imag(p)
	}
	return s / float64(len(c.points))
}

// Nearest returns the index of the constellation point closest to r in
// Euclidean distance — the maximum-likelihood decision on an AWGN
// channel. Alphabets with recognizable structure (rectangular grids
// such as QAM and the axis-aligned QPSK diamond) decide via per-axis
// thresholds instead of a full scan; arbitrary point sets fall back to
// the linear minimum-distance search.
func (c *Constellation) Nearest(r complex128) int {
	if c.grid != nil {
		return c.grid.slice(r)
	}
	if c.diamond != nil {
		return c.diamond.slice(r)
	}
	return nearestScan(c.points, r)
}

func nearestScan(points []complex128, r complex128) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range points {
		d := real(r-p)*real(r-p) + imag(r-p)*imag(r-p)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Slice hard-decides a whole block of received symbols into indices,
// appending to dst.
func (c *Constellation) Slice(dst []int, rx []complex128) []int {
	for _, r := range rx {
		dst = append(dst, c.Nearest(r))
	}
	return dst
}

// MapBits converts a bit slice (0/1 values) into symbol indices, MSB
// first within each symbol, appending to dst. The final partial symbol,
// if any, is zero-padded.
func (c *Constellation) MapBits(dst []int, bits []byte) []int {
	for i := 0; i < len(bits); i += c.bits {
		sym := 0
		for b := 0; b < c.bits; b++ {
			sym <<= 1
			if i+b < len(bits) && bits[i+b] != 0 {
				sym |= 1
			}
		}
		dst = append(dst, sym)
	}
	return dst
}

// UnmapBits converts symbol indices back into bits, appending to dst.
func (c *Constellation) UnmapBits(dst []byte, symbols []int) []byte {
	for _, s := range symbols {
		for b := c.bits - 1; b >= 0; b-- {
			dst = append(dst, byte((s>>b)&1))
		}
	}
	return dst
}

// Modulate converts symbol indices to constellation points, appending to
// dst.
func (c *Constellation) Modulate(dst []complex128, symbols []int) []complex128 {
	for _, s := range symbols {
		dst = append(dst, c.Point(s))
	}
	return dst
}

// EVM returns the root-mean-square error vector magnitude (as a fraction
// of RMS symbol magnitude) between received points and their nearest
// constellation points.
func (c *Constellation) EVM(rx []complex128) float64 {
	if len(rx) == 0 {
		return 0
	}
	var errPow float64
	for _, r := range rx {
		p := c.points[c.Nearest(r)]
		errPow += real(r-p)*real(r-p) + imag(r-p)*imag(r-p)
	}
	ref := c.MeanPower()
	if ref == 0 {
		return math.Inf(1)
	}
	return math.Sqrt(errPow / float64(len(rx)) / ref)
}

// Classic constellations used as references and by the active-radio
// baseline.

// NewQPSK returns Gray-labelled unit-circle QPSK matching the tag's
// four-state alphabet.
func NewQPSK() *Constellation {
	c, _ := NewConstellation("qpsk", []complex128{1, 1i, -1i, -1})
	return c
}

// ScaleRotateTo writes rx corrected by the complex factor g (rx[i] / g)
// into dst (grown only when its capacity is short): the standard
// one-tap equalizer applied after channel estimation. A zero g copies
// rx unchanged. dst may alias rx.
func ScaleRotateTo(dst, rx []complex128, g complex128) []complex128 {
	out := dsp.GrowComplex(dst, len(rx))
	if g == 0 {
		copy(out, rx)
		return out
	}
	inv := 1 / g
	for i, v := range rx {
		out[i] = v * inv
	}
	return out
}

// EstimateGain computes the data-aided least-squares single-tap channel
// estimate from received pilots and their known transmitted symbols:
//
//	g = sum(rx * conj(tx)) / sum(|tx|^2)
func EstimateGain(rx, tx []complex128) (complex128, error) {
	if len(rx) != len(tx) || len(rx) == 0 {
		return 0, fmt.Errorf("phy: pilot length mismatch (%d vs %d)", len(rx), len(tx))
	}
	var num complex128
	var den float64
	for i := range rx {
		num += rx[i] * cmplx.Conj(tx[i])
		den += real(tx[i])*real(tx[i]) + imag(tx[i])*imag(tx[i])
	}
	if den == 0 {
		return 0, fmt.Errorf("phy: zero-energy pilots")
	}
	return num / complex(den, 0), nil
}
