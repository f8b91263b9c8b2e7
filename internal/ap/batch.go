package ap

import (
	"fmt"
	"math"
	"sync"

	"mmtag/internal/dsp"
)

// This file is the receive path: one Demodulator pass over a
// structure-of-arrays batch of per-tag waveforms, and the one-waveform
// Demodulate that stages its input as a single-lane batch. The per-tag
// pipeline is integrate-and-dump per sub-symbol alignment,
// offset-immune preamble search, joint gain/offset fit, equalize,
// slice, decode — but every (waveform, alignment) pair becomes one lane
// of a dsp.Batch, so the preamble correlations of the whole batch sweep
// through one cached FFT plan, one cached preamble spectrum and one
// arena pass instead of lanes × (plan walk + spectrum lookup + scratch
// borrow). Results are bit-identical to the serial reference pipeline
// the package tests keep as an oracle (one waveform, one alignment at a
// time): the per-lane arithmetic is the same operations in the same
// order, only the memory layout and the amortization of size-keyed
// lookups differ.
//
// DESIGN.md: section 11 (batched demodulation).

// demodScratch is the pooled working set of one batch pass: the lane
// batches reach a steady-state capacity after which a pass allocates
// nothing beyond the decoded frames and any per-tag error values.
type demodScratch struct {
	syms dsp.Batch // one integrate-and-dump lane per (waveform, alignment)
	corr dsp.Batch // the matching correlation rows
}

var demodScratchPool = sync.Pool{New: func() interface{} { return new(demodScratch) }}

// waveScratch stages one waveform into a single-lane batch for
// Demodulate; pooled so the staging buffer is amortized.
type waveScratch struct {
	rx  dsp.Batch
	res [1]UplinkResult
}

var waveScratchPool = sync.Pool{New: func() interface{} { return new(waveScratch) }}

// Demodulate runs the full uplink pipeline on one oversampled baseband
// waveform: symbol integration, preamble search (over symbol-timing
// offsets), joint gain/offset estimation, equalization, slicing, and
// frame decode. sps is the receiver's samples per symbol. It is the
// fused batch kernel over a one-lane batch: the sps alignment
// hypotheses sweep one grouped FFT, and the staging batch is pooled so
// steady-state calls allocate only what escapes with the result.
func (d *Demodulator) Demodulate(rx []complex128, sps int) UplinkResult {
	s := waveScratchPool.Get().(*waveScratch)
	s.rx.Reset(1, len(rx))
	copy(s.rx.LaneCap(0), rx)
	s.rx.SetLaneLen(0, len(rx))
	out := d.DemodulateBatchTo(s.res[:0], &s.rx, sps)
	res := out[0]
	waveScratchPool.Put(s)
	return res
}

// DemodulateBatchTo demodulates every lane of rx — one per-tag waveform
// per lane, all sampled at sps samples per symbol — into one
// UplinkResult per lane of dst (grown only when its capacity is short),
// the same results as calling Demodulate on each lane in turn. With a
// capacious dst, steady-state passes allocate only what escapes to the
// caller: decoded frames and formatted per-tag errors.
func (d *Demodulator) DemodulateBatchTo(dst []UplinkResult, rx *dsp.Batch, sps int) []UplinkResult {
	n := rx.Lanes()
	if cap(dst) < n {
		dst = make([]UplinkResult, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = UplinkResult{SyncSymbol: -1}
	}
	if n == 0 {
		return dst
	}
	start := d.m.now()
	scr := demodScratchPool.Get().(*demodScratch)
	ar := dsp.GetArena()
	d.demodBatchKernel(dst, rx, sps, scr, ar)
	dsp.PutArena(ar)
	demodScratchPool.Put(scr)
	if d.m != nil {
		for i := range dst {
			d.m.observeResult(&dst[i], start)
		}
	}
	return dst
}

// demodBatchKernel is the fused correlate→equalize→slice→decide kernel
// behind DemodulateBatchTo. It is deliberately one function: profiling
// attributes the whole batched receive pass (minus the shared dsp
// transforms) to this frame, so `mmtag-bench -pprof` cost tables name
// the batch cycles instead of smearing them across stage helpers.
func (d *Demodulator) demodBatchKernel(res []UplinkResult, rx *dsp.Batch, sps int, scr *demodScratch, ar *dsp.Arena) {
	n := rx.Lanes()
	m := len(d.centredPre)
	if sps < 2 {
		for t := 0; t < n; t++ {
			res[t].Err = fmt.Errorf("ap: waveform too short for demodulation")
		}
		return
	}
	start := d.m.now()
	minLen := sps * (len(d.preambleBits) + 8)
	maxSyms := 0
	for t := 0; t < n; t++ {
		if s := len(rx.Lane(t)) / sps; s > maxSyms {
			maxSyms = s
		}
	}
	lanes := n * sps
	scr.syms.Reset(lanes, maxSyms)
	scr.corr.Reset(lanes, maxSyms)

	// Stage 1: integrate-and-dump every sub-symbol alignment of every
	// waveform into its own lane. Alignments too short for the
	// preamble search stay empty lanes.
	skip := sps / 4
	div := float64(sps - skip)
	for t := 0; t < n; t++ {
		wave := rx.Lane(t)
		if len(wave) < minLen {
			res[t].Err = fmt.Errorf("ap: waveform too short for demodulation")
			continue
		}
		for off := 0; off < sps; off++ {
			lane := t*sps + off
			ns := (len(wave) - off) / sps
			if ns < m+1 {
				continue
			}
			scr.syms.SetLaneLen(lane, ns)
			out := scr.syms.LaneCap(lane)[:ns]
			if sps == 8 && skip == 2 {
				// Constant-trip specialization for the dominant
				// oversampling factor: same accumulation order, but
				// fixed-index loads through an array pointer instead
				// of a fresh slice header per symbol.
				pos := off
				for k := range out {
					w := (*[8]complex128)(wave[pos:])
					var acc complex128
					acc += w[2]
					acc += w[3]
					acc += w[4]
					acc += w[5]
					acc += w[6]
					acc += w[7]
					out[k] = complex(real(acc)/div, imag(acc)/div)
					pos += 8
				}
				continue
			}
			pos := off
			for k := range out {
				var acc complex128
				for _, v := range wave[pos+skip : pos+sps] {
					acc += v
				}
				out[k] = complex(real(acc)/div, imag(acc)/div)
				pos += sps
			}
		}
	}

	// Stage 2: one batched correlation for every lane of every
	// waveform — one plan walk and one spectrum fetch per FFT size for
	// the whole batch.
	d.preKern.CrossCorrelateBatch(&scr.corr, &scr.syms, ar)

	// Stage 3: offset-immune peak scoring, lane by lane in ascending
	// alignment order; keep each waveform's best (lag, score, lane).
	refE := dsp.Energy(d.centredPre)
	prefSum := ar.Complex(maxSyms + 1)
	prefE := ar.Float(maxSyms + 1)
	bests := ar.Ints(2 * n)
	scores := ar.Float(n)
	for t := 0; t < n; t++ {
		bestLag, bestScore, bestLane := -1, 0.0, -1
		if res[t].Err == nil && refE != 0 {
			for off := 0; off < sps; off++ {
				lane := t*sps + off
				syms := scr.syms.Lane(lane)
				if len(syms) == 0 {
					continue
				}
				// Reslice the prefix buffers to exactly the lengths the
				// loops cover so every index below is provably in range
				// (bounds checks vanish); running sums stay in registers.
				ps := prefSum[: len(syms)+1 : len(syms)+1]
				pe := prefE[: len(syms)+1 : len(syms)+1]
				ps[0] = 0
				pe[0] = 0
				var runS complex128
				runE := 0.0
				for i, v := range syms {
					runS += v
					// Two separate adds: the reference expression
					// p + rr + ii groups left, (p+rr)+ii.
					runE += real(v) * real(v)
					runE += imag(v) * imag(v)
					ps[i+1] = runS
					pe[i+1] = runE
				}
				lag, score := -1, 0.0
				corrLane := scr.corr.Lane(lane)
				psm := ps[m:]
				pem := pe[m:]
				fm := float64(m)
				// thresh underestimates score² by a relative 1e-9 — vastly
				// more than the few-ulp rounding of the squared-domain
				// test below, so the cheap reject can never discard a
				// sample the exact test would accept. Candidates that
				// survive it go through the original |c|/sqrt(varE·refE)
				// arithmetic unchanged, keeping lag and score
				// bit-identical to the serial scorer.
				thresh := 0.0
				for k, c := range corrLane {
					wSum := psm[k] - ps[k]
					wE := pem[k] - pe[k]
					varE := wE - (real(wSum)*real(wSum)+imag(wSum)*imag(wSum))/fm
					if varE <= 1e-30 {
						continue
					}
					vr := varE * refE
					cr, ci := real(c), imag(c)
					if cr*cr+ci*ci <= thresh*vr {
						continue
					}
					s := cmplxAbs(c) / math.Sqrt(vr)
					if s > score {
						lag, score = k, s
						thresh = score * score * (1 - 1e-9)
					}
				}
				if score > bestScore {
					bestLag, bestScore, bestLane = lag, score, lane
				}
			}
		}
		bests[2*t], bests[2*t+1] = bestLag, bestLane
		scores[t] = bestScore
	}
	d.m.observeStage("sync", start)

	// Stage 4: finish each waveform — gain/offset fit on the preamble,
	// equalize, EVM, slice and decode.
	for t := 0; t < n; t++ {
		if res[t].Err != nil {
			continue
		}
		bestLag, bestLane, bestScore := bests[2*t], bests[2*t+1], scores[t]
		res[t].SyncScore = bestScore
		if bestLag < 0 || bestScore < 0.5 {
			res[t].Err = fmt.Errorf("ap: preamble not found (best score %.2f)", bestScore)
			continue
		}
		res[t].SyncSymbol = bestLag
		eqStart := d.m.now()
		syms := scr.syms.Lane(bestLane)
		pre := syms[bestLag : bestLag+len(d.preamblePts)]
		a, b, err := fitGainOffset(pre, d.preamblePts)
		if err != nil {
			res[t].Err = err
			continue
		}
		res[t].Gain, res[t].Offset = a, b
		data := syms[bestLag+len(d.preamblePts):]
		eq := ar.Complex(len(data))
		inv := complex(1, 0) / a
		for i, v := range data {
			eq[i] = (v - b) * inv
		}
		res[t].EVM = d.constellation.EVM(eq)
		d.m.observeStage("equalize", eqStart)
		decStart := d.m.now()
		f, err := d.decide(eq, ar)
		ar.PutComplex(eq)
		d.m.observeStage("fec-decode", decStart)
		if err != nil {
			res[t].Err = err
			continue
		}
		res[t].Frame = f
	}
	ar.PutFloat(scores)
	ar.PutInts(bests)
	ar.PutFloat(prefE)
	ar.PutComplex(prefSum)
}
