package phy

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"mmtag/internal/dsp"
	"mmtag/internal/fastrand"
)

// RandomBits fills a new slice of n pseudo-random bits from rng.
func RandomBits(rng fastrand.RNG, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

// BERResult summarizes a Monte-Carlo bit-error measurement.
type BERResult struct {
	Bits   int
	Errors int
}

// Rate returns the measured bit error rate.
func (r BERResult) Rate() float64 {
	if r.Bits == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Bits)
}

// MeasureBER runs a symbol-level AWGN Monte-Carlo for a constellation at
// the given linear Eb/N0, transmitting nBits bits. This is the reference
// measurement the waveform-level chain is validated against (experiment
// E3).
//
// The noise power per symbol is Es/N0^-1-scaled: N0 = Es / (Eb/N0 * bits)
// split across I and Q.
// The implementation is fused: random bits pack straight into symbol
// indices, each symbol is modulated, perturbed, and sliced in one pass,
// and bit errors are counted by popcount on tx^rx symbol indices. The
// RNG draw sequence (all bit draws, then two Gaussian draws per symbol)
// and every floating-point operation match the original staged
// pipeline, so results for a given rng stream are unchanged — the
// buffers are just gone.
//
// rng must be a *fastrand.Rand, which runs measureBERFused with the
// generator inlined into the loop, or a *rand.Rand, which runs
// measureBERRef, the plain loop the equivalence tests hold the fused
// body to. Both draw the same stream, so the result depends only on the
// seed, not the type. Any other RNG panics (see fastrand.RNG).
func MeasureBER(c *Constellation, ebn0 float64, nBits int, rng fastrand.RNG) (BERResult, error) {
	if ebn0 <= 0 {
		return BERResult{}, fmt.Errorf("phy: Eb/N0 must be positive, got %g", ebn0)
	}
	if nBits <= 0 {
		return BERResult{}, fmt.Errorf("phy: bit count must be positive, got %d", nBits)
	}
	switch r := rng.(type) {
	case *fastrand.Rand:
		return measureBERFused(c, ebn0, nBits, r), nil
	case *rand.Rand:
		return measureBERRef(c, ebn0, nBits, r), nil
	}
	panic("phy: MeasureBER needs a *rand.Rand or a *fastrand.Rand")
}

// measureBERRef is MeasureBER's body for a *rand.Rand. MeasureBER has
// validated the arguments.
func measureBERRef(c *Constellation, ebn0 float64, nBits int, rng *rand.Rand) BERResult {
	bps := c.BitsPerSymbol()
	nSym := (nBits + bps - 1) / bps
	ar := dsp.GetArena()
	syms := ar.Ints(nSym)
	// Phase one: draw nBits random bits, packing each group of bps
	// (MSB first, final symbol zero-padded) — the draw order of
	// RandomBits followed by MapBits.
	sym, fill, idx := 0, 0, 0
	for i := 0; i < nBits; i++ {
		sym = sym<<1 | rng.Intn(2)
		fill++
		if fill == bps {
			syms[idx] = sym
			idx++
			sym, fill = 0, 0
		}
	}
	if fill > 0 {
		syms[idx] = sym << (bps - fill)
	}

	es := c.MeanPower()
	n0 := es / (ebn0 * float64(bps))
	sigma := math.Sqrt(n0 / 2)

	// Phase two: modulate, add noise, slice, and count bit errors per
	// symbol. The final symbol may carry padding; only its top bits that
	// came from real data are compared.
	rem := nBits - (nSym-1)*bps // data bits in the final symbol
	errs := 0
	for i, s := range syms {
		r := c.points[s] + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		d := c.Nearest(r)
		diff := uint(s ^ d)
		if i == nSym-1 && rem < bps {
			diff >>= uint(bps - rem)
		}
		errs += bits.OnesCount(diff)
	}
	ar.PutInts(syms)
	dsp.PutArena(ar)
	return BERResult{Bits: nBits, Errors: errs}
}
