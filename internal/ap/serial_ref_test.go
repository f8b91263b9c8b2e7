package ap

import (
	"fmt"
	"math"

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
		lag, score := offsetImmunePeak(syms, d.centredPre, ar)
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

// offsetImmunePeak is the full-correlation preamble scorer: correlate x
// against the zero-mean reference ref, then normalize each window by
// its own variance, so an arbitrarily large constant offset (the
// uncancelled self-interference) neither shifts the peak nor deflates
// the score. It is the oracle dsp.CorrKernel.OffsetImmunePeak is held
// to; correlation and prefix-sum scratch come from ar.
func offsetImmunePeak(x []complex128, ref []complex128, ar *dsp.Arena) (int, float64) {
	m := len(ref)
	if m == 0 || len(x) < m {
		return -1, 0
	}
	refE := dsp.Energy(ref)
	if refE == 0 {
		return -1, 0
	}
	corr := dsp.CrossCorrelateTo(ar.Complex(len(x)-m+1), x, ref, ar)
	// Sliding window sum and energy via prefix sums.
	prefSum := ar.Complex(len(x) + 1)
	prefSum[0] = 0
	prefE := ar.Float(len(x) + 1)
	prefE[0] = 0
	for i, v := range x {
		prefSum[i+1] = prefSum[i] + v
		prefE[i+1] = prefE[i] + real(v)*real(v) + imag(v)*imag(v)
	}
	defer func() {
		ar.PutFloat(prefE)
		ar.PutComplex(prefSum)
		ar.PutComplex(corr)
	}()
	bestLag, bestScore := -1, 0.0
	for k, c := range corr {
		wSum := prefSum[k+m] - prefSum[k]
		wE := prefE[k+m] - prefE[k]
		// Variance-style energy: window energy minus offset contribution.
		varE := wE - (real(wSum)*real(wSum)+imag(wSum)*imag(wSum))/float64(m)
		if varE <= 1e-30 {
			continue
		}
		s := math.Hypot(real(c), imag(c)) / math.Sqrt(varE*refE)
		if s > bestScore {
			bestLag, bestScore = k, s
		}
	}
	return bestLag, bestScore
}
