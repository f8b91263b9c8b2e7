package phy

import (
	"math"
	"math/bits"

	"mmtag/internal/dsp"
	"mmtag/internal/fastrand"
)

// measureBERFused is MeasureBER's body for the devirtualized fastrand
// generator: bit-identical results and RNG stream for the same seed,
// with the whole per-symbol path — bit draw, Gaussian accept test,
// slicer decision — inlined into one loop with no calls on the common
// path. The bit draw is Intn(2)'s power-of-two branch (Int31()&1), the
// Gaussian draw replicates NormFloat64's ziggurat accept test inline
// (falling into NormSlow for the <1% rejections), the generator runs
// through a detached fastrand.Core so its positions stay in registers,
// and the decision loops come from the constellation's recognized
// slicer structure. MeasureBER has validated the arguments.
func measureBERFused(c *Constellation, ebn0 float64, nBits int, rng *fastrand.Rand) BERResult {
	bps := c.BitsPerSymbol()
	nSym := (nBits + bps - 1) / bps
	ar := dsp.GetArena()
	syms := ar.Ints(nSym)
	core := rng.Core()
	// Phase one: draw nBits random bits, packing each group of bps
	// (MSB first, final symbol zero-padded). Intn(2) == Int31() & 1,
	// drawn from the same stream position.
	sym, fill, idx := 0, 0, 0
	for i := 0; i < nBits; i++ {
		sym = sym<<1 | int(core.Int31()&1)
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
	// symbol — one specialized loop per slicer shape so the decision is
	// branch code, not an indirect call.
	rem := nBits - (nSym-1)*bps // data bits in the final symbol
	errs := 0
	switch {
	case c.grid != nil:
		g := c.grid
		reMids, imMids, gidx, nim := g.reMids, g.imMids, g.idx, g.nim
		for i, s := range syms {
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
			r := c.points[s] + complex(x1*sigma, x2*sigma)
			re, im := real(r), imag(r)
			// Full scans instead of early-exit: the mids are sorted, so
			// counting the thresholds below the sample gives the same
			// level index. The count updates are phrased as conditional
			// moves (n precomputed, conditionally committed) because the
			// comparisons are random under noise and a branch here
			// mispredicts half the time.
			ri := 0
			for _, m := range reMids {
				n := ri + 1
				if re > m {
					ri = n
				}
			}
			ii := 0
			for _, m := range imMids {
				n := ii + 1
				if im > m {
					ii = n
				}
			}
			diff := uint(s ^ gidx[ri*nim+ii])
			if i == nSym-1 && rem < bps {
				diff >>= uint(bps - rem)
			}
			errs += bits.OnesCount(diff)
		}
	case c.diamond != nil:
		d := c.diamond
		right, up, down, left := d.right, d.up, d.down, d.left
		for i, s := range syms {
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
			r := c.points[s] + complex(x1*sigma, x2*sigma)
			// diamondData.slice, hand-inlined in conditional-move form:
			// axis and signs are random under noise, so branches here
			// mispredict half the time.
			re, im := real(r), imag(r)
			are, aim := math.Abs(re), math.Abs(im)
			var dec int
			if are == aim {
				dec = d.tie(re, im, are)
			} else {
				h := right
				if re < 0 {
					h = left
				}
				v := up
				if im < 0 {
					v = down
				}
				if aim > are {
					h = v
				}
				dec = h
			}
			diff := uint(s ^ dec)
			if i == nSym-1 && rem < bps {
				diff >>= uint(bps - rem)
			}
			errs += bits.OnesCount(diff)
		}
	default:
		for i, s := range syms {
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
			r := c.points[s] + complex(x1*sigma, x2*sigma)
			diff := uint(s ^ nearestScan(c.points, r))
			if i == nSym-1 && rem < bps {
				diff >>= uint(bps - rem)
			}
			errs += bits.OnesCount(diff)
		}
	}
	rng.SetCore(core)
	ar.PutInts(syms)
	dsp.PutArena(ar)
	return BERResult{Bits: nBits, Errors: errs}
}
