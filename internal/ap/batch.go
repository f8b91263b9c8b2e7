package ap

import (
	"fmt"
	"sync"

	"mmtag/internal/dsp"
)

// This file is the receive path: one Demodulator pass over a
// structure-of-arrays batch of per-tag waveforms, and the one-waveform
// Demodulate that stages its input as a single-lane batch. The per-tag
// pipeline is integrate-and-dump per sub-symbol alignment,
// offset-immune preamble search, joint gain/offset fit, equalize,
// slice, decode. Each waveform's alignments become the lanes of one
// dsp.Batch, searched by one dsp.CorrKernel.OffsetImmunePeak call: it
// scans them in ascending order against the best score so far, so every
// lag that cannot beat it is abandoned after a few taps, and it groups
// the FFT-sized ones into one transform sweep. Results are
// bit-identical to the serial reference pipeline the package tests keep
// as an oracle (full correlation, then scoring, one alignment at a
// time): every lag that can still win is summed and scored exactly as
// there.
//
// DESIGN.md: section 11 (batched demodulation).

// waveScratch stages one waveform into a single-lane batch for
// Demodulate; pooled so the staging buffer is amortized.
type waveScratch struct {
	rx  dsp.Batch
	res [1]UplinkResult
}

var waveScratchPool = sync.Pool{New: func() interface{} { return new(waveScratch) }}

// symsPool recycles the batch kernel's alignment lanes.
var symsPool = sync.Pool{New: func() interface{} { return new(dsp.Batch) }}

// Demodulate runs the full uplink pipeline on one oversampled baseband
// waveform: symbol integration, preamble search (over symbol-timing
// offsets), joint gain/offset estimation, equalization, slicing, and
// frame decode. sps is the receiver's samples per symbol. It is the
// fused batch kernel over a one-lane batch, and the staging batch is
// pooled so steady-state calls allocate only what escapes with the
// result.
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
	ar := dsp.GetArena()
	d.demodBatchKernel(dst, rx, sps, ar)
	dsp.PutArena(ar)
	if d.m != nil {
		for i := range dst {
			d.m.observeResult(&dst[i], start)
		}
	}
	return dst
}

// demodBatchKernel is the fused integrate→search→equalize→slice→decide
// kernel behind DemodulateBatchTo, one waveform at a time. It is
// deliberately one function: profiling attributes the whole receive
// pass (minus the dsp kernels it calls) to this frame, so
// a `mmtag-bench -pprof` capture names the batch cycles instead of
// smearing them across stage helpers.
func (d *Demodulator) demodBatchKernel(res []UplinkResult, rx *dsp.Batch, sps int, ar *dsp.Arena) {
	n := rx.Lanes()
	m := len(d.centredPre)
	if sps < 2 {
		for t := 0; t < n; t++ {
			res[t].Err = fmt.Errorf("ap: waveform too short for demodulation")
		}
		return
	}
	minLen := sps * (len(d.preambleBits) + 8)
	maxSyms := 0
	for t := 0; t < n; t++ {
		if s := len(rx.Lane(t)) / sps; s > maxSyms {
			maxSyms = s
		}
	}
	// One integrate-and-dump lane per sub-symbol alignment, reused by
	// every waveform.
	syms := symsPool.Get().(*dsp.Batch)
	skip := sps / 4
	div := float64(sps - skip)
	for t := 0; t < n; t++ {
		start := d.m.now()
		wave := rx.Lane(t)
		lane, bestLag, bestScore := -1, -1, 0.0
		if len(wave) < minLen {
			res[t].Err = fmt.Errorf("ap: waveform too short for demodulation")
		} else {
			// Stage 1: integrate-and-dump every sub-symbol alignment
			// into its own lane. Alignments too short for the preamble
			// search stay empty lanes.
			syms.Reset(sps, maxSyms)
			for off := 0; off < sps; off++ {
				ns := (len(wave) - off) / sps
				if ns < m+1 {
					continue
				}
				syms.SetLaneLen(off, ns)
				out := syms.Lane(off)
				// Constant-trip specialization for the dominant
				// oversampling factor: same accumulation order, but
				// fixed-index loads through an array pointer instead
				// of a fresh slice header per symbol.
				pos := off
				if sps == 8 {
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
				for k := range out {
					var acc complex128
					for _, v := range wave[pos+skip : pos+sps] {
						acc += v
					}
					out[k] = complex(real(acc)/div, imag(acc)/div)
					pos += sps
				}
			}
			// Stage 2: the offset-immune preamble search over every
			// alignment, in ascending order, each one against the best
			// score so far.
			lane, bestLag, bestScore = d.preKern.OffsetImmunePeak(syms, ar)
		}
		d.m.observeStage("sync", start)
		if res[t].Err != nil {
			continue
		}

		// Stage 3: finish the waveform — gain/offset fit on the
		// preamble, equalize, EVM, slice and decode.
		res[t].SyncScore = bestScore
		if bestLag < 0 || bestScore < 0.5 {
			res[t].Err = fmt.Errorf("ap: preamble not found (best score %.2f)", bestScore)
			continue
		}
		res[t].SyncSymbol = bestLag
		eqStart := d.m.now()
		best := syms.Lane(lane)
		pre := best[bestLag : bestLag+len(d.preamblePts)]
		a, b, err := fitGainOffset(pre, d.preamblePts)
		if err != nil {
			res[t].Err = err
			continue
		}
		res[t].Gain, res[t].Offset = a, b
		data := best[bestLag+len(d.preamblePts):]
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
	symsPool.Put(syms)
}
