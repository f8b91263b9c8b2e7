package ap

import (
	"fmt"

	"mmtag/internal/dsp"
)

// demodulateSerial is the reference uplink pipeline, one waveform and
// one sub-symbol alignment at a time: symbol integration, preamble
// search (over symbol-timing offsets), joint gain/offset estimation,
// equalization, slicing, and frame decode. It is the oracle the fused
// batch kernel behind Demodulate and DemodulateBatchTo is held
// bit-identical to; production code never runs it.
func (d *Demodulator) demodulateSerial(rx []complex128, sps int) UplinkResult {
	res := UplinkResult{SyncSymbol: -1}
	if sps < 2 || len(rx) < sps*(len(d.preambleBits)+8) {
		res.Err = fmt.Errorf("ap: waveform too short for demodulation")
		return res
	}
	// Two symbol buffers ping-pong between "current alignment" and
	// "best so far"; every downstream stage borrows from the same arena.
	ar := dsp.GetArena()
	maxSyms := len(rx) / sps
	bufA, bufB := ar.Complex(maxSyms), ar.Complex(maxSyms)
	defer func() {
		ar.PutComplex(bufA)
		ar.PutComplex(bufB)
		dsp.PutArena(ar)
	}()
	// Try every sub-symbol alignment; keep the best preamble correlation.
	bestLag, bestScore := -1, 0.0
	var bestSyms []complex128
	scratch, kept := bufA, bufB
	for off := 0; off < sps; off++ {
		syms := integrateAndDumpTo(scratch, rx[off:], sps)
		if len(syms) < len(d.centredPre)+1 {
			continue
		}
		lag, score := offsetImmunePeak(syms, d.preKern, ar)
		if score > bestScore {
			bestLag, bestScore = lag, score
			bestSyms = syms
			scratch, kept = kept, scratch
		}
	}
	res.SyncScore = bestScore
	if bestLag < 0 || bestScore < 0.5 {
		res.Err = fmt.Errorf("ap: preamble not found (best score %.2f)", bestScore)
		return res
	}
	res.SyncSymbol = bestLag

	// Joint least-squares estimate of (gain a, offset b) from the known
	// preamble: rx = a*p + b.
	pre := bestSyms[bestLag : bestLag+len(d.preamblePts)]
	a, b, err := fitGainOffset(pre, d.preamblePts)
	if err != nil {
		res.Err = err
		return res
	}
	res.Gain, res.Offset = a, b

	// Equalize everything after the preamble and slice.
	data := bestSyms[bestLag+len(d.preamblePts):]
	eq := ar.Complex(len(data))
	inv := complex(1, 0) / a
	for i, v := range data {
		eq[i] = (v - b) * inv
	}
	res.EVM = d.constellation.EVM(eq)
	res.Frame, res.Err = d.decide(eq, ar)
	ar.PutComplex(eq)
	return res
}
