package ap

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"time"

	"mmtag/internal/dsp"
	"mmtag/internal/frame"
	"mmtag/internal/obs"
	"mmtag/internal/phy"
)

// UplinkResult reports a demodulated uplink reception.
type UplinkResult struct {
	// Frame is the decoded frame (nil when decoding failed).
	Frame *frame.Frame
	// SyncScore is the preamble correlation quality in [0, 1].
	SyncScore float64
	// SyncSymbol is the symbol index where the preamble was found.
	SyncSymbol int
	// Gain and Offset are the estimated one-tap channel and static
	// (self-interference + clutter) terms.
	Gain   complex128
	Offset complex128
	// EVM is the post-equalization error vector magnitude of the data
	// symbols.
	EVM float64
	// Err carries the decode failure, if any.
	Err error
}

// OK reports whether the frame decoded cleanly.
func (r *UplinkResult) OK() bool { return r.Frame != nil && r.Err == nil }

// Demodulator is the AP's uplink symbol pipeline, bound to a tag
// alphabet and frame geometry.
type Demodulator struct {
	constellation *phy.Constellation
	preambleBits  []byte
	preamblePts   []complex128 // alphabet points of the preamble bits
	centredPre    []complex128 // mean-removed preamble for correlation
	preKern       *dsp.CorrKernel
	opts          frame.Options
	m             *demodMetrics // nil when uninstrumented
}

// demodMetrics meters the waveform-level receive pipeline.
type demodMetrics struct {
	total     *obs.Histogram    // rx_demod_ns: whole-pipeline wall time
	stages    *obs.HistogramVec // rx_stage_ns{stage}: sync/equalize/decode
	frames    *obs.CounterVec   // rx_frames_total{ok}
	syncScore *obs.Histogram    // rx_sync_score
	evm       *obs.Histogram    // rx_evm
}

// Instrument meters this demodulator's pipeline into reg: per-call and
// per-stage wall-clock histograms, decode outcomes, sync-score and EVM
// distributions. A nil registry leaves the demodulator uninstrumented.
func (d *Demodulator) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	nsBuckets := obs.ExponentialBuckets(100, 4, 12)
	d.m = &demodMetrics{
		total: reg.Histogram("rx_demod_ns",
			"Wall-clock cost of one demodulation pass (ns).", nsBuckets),
		stages: reg.HistogramVec("rx_stage_ns",
			"Wall-clock cost of each receive stage (ns).", nsBuckets, "stage"),
		frames: reg.CounterVec("rx_frames_total",
			"Demodulated frames by decode outcome.", "ok"),
		syncScore: reg.Histogram("rx_sync_score",
			"Preamble correlation quality in [0,1].",
			obs.LinearBuckets(0.1, 0.1, 10)),
		evm: reg.Histogram("rx_evm",
			"Post-equalization error vector magnitude.",
			obs.ExponentialBuckets(0.01, 2, 10)),
	}
}

// observeResult records the outcome-side instruments for one pass.
func (m *demodMetrics) observeResult(res *UplinkResult, start time.Time) {
	if m == nil {
		return
	}
	m.total.Observe(float64(time.Since(start).Nanoseconds()))
	m.frames.With(obs.OK(res.OK())).Inc()
	m.syncScore.Observe(res.SyncScore)
	if res.Frame != nil {
		m.evm.Observe(res.EVM)
	}
}

// observeStage records one stage's wall time.
func (m *demodMetrics) observeStage(stage string, start time.Time) {
	if m == nil {
		return
	}
	m.stages.With(stage).Observe(float64(time.Since(start).Nanoseconds()))
}

// now avoids the time.Now() call entirely when uninstrumented.
func (m *demodMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// NewDemodulator builds a demodulator for the given tag alphabet,
// preamble length (bits) and frame options. The preamble bits are mapped
// one bit per symbol onto the alphabet's first two states, so any
// alphabet (including OOK) yields a binary sync pattern.
func NewDemodulator(c *phy.Constellation, preambleLen int, opts frame.Options) (*Demodulator, error) {
	if c == nil {
		return nil, fmt.Errorf("ap: constellation is required")
	}
	if preambleLen < 8 {
		return nil, fmt.Errorf("ap: preamble must be >= 8 bits, got %d", preambleLen)
	}
	bits := frame.Preamble(preambleLen)
	pts := make([]complex128, preambleLen)
	var mean complex128
	for i, b := range bits {
		pts[i] = c.Point(int(b))
		mean += pts[i]
	}
	mean /= complex(float64(preambleLen), 0)
	centred := make([]complex128, preambleLen)
	for i := range pts {
		centred[i] = pts[i] - mean
	}
	return &Demodulator{
		constellation: c,
		preambleBits:  bits,
		preamblePts:   pts,
		centredPre:    centred,
		preKern:       dsp.NewCorrKernel(centred),
		opts:          opts,
	}, nil
}

// PreambleSymbolIndices returns the alphabet symbol indices the tag
// modulates for the preamble.
func (d *Demodulator) PreambleSymbolIndices() []int {
	out := make([]int, len(d.preambleBits))
	for i, b := range d.preambleBits {
		out[i] = int(b)
	}
	return out
}

// integrateAndDumpTo matched-filters an oversampled waveform into one
// decision point per symbol, written into dst (grown only when its
// capacity is short): the mean of each symbol's later samples (skipping
// the first quarter, where the switch transition lives).
func integrateAndDumpTo(dst, x []complex128, sps int) []complex128 {
	n := len(x) / sps
	out := dsp.GrowComplex(dst, n)
	skip := sps / 4
	div := float64(sps - skip)
	for k := 0; k < n; k++ {
		var acc complex128
		for i := skip; i < sps; i++ {
			acc += x[k*sps+i]
		}
		// Componentwise division by the real sample count. This is the
		// exact path runtime.complex128div takes for a positive real
		// divisor (Smith's algorithm with ratio 0), minus the call and
		// the branchy scaling — bit-identical for every finite acc.
		out[k] = complex(real(acc)/div, imag(acc)/div)
	}
	return out
}

// decide turns equalized symbols into a frame. For coded frames on a
// binary alphabet it extracts per-bit soft levels (the projection onto
// the axis between the two states) and decodes through the soft Viterbi
// path, falling back to hard decisions when the soft parse fails.
// Intermediate buffers come from ar; the frame decoders copy what they
// keep, so nothing arena-owned escapes.
func (d *Demodulator) decide(eq []complex128, ar *dsp.Arena) (*frame.Frame, error) {
	if d.opts.Coded && d.constellation.Size() == 2 {
		p0, p1 := d.constellation.Point(0), d.constellation.Point(1)
		axis := p1 - p0
		den := real(axis)*real(axis) + imag(axis)*imag(axis)
		if den > 1e-30 {
			levels := ar.Float(len(eq))
			for i, v := range eq {
				rel := v - p0
				levels[i] = (real(rel)*real(axis) + imag(rel)*imag(axis)) / den
			}
			f, _, err := frame.DecodeBitsSoft(levels, d.opts)
			ar.PutFloat(levels)
			if err == nil {
				return f, nil
			}
		}
	}
	return d.decideHard(eq, ar)
}

// decideHard slices equalized symbols to alphabet indices, unmaps them
// to bits and decodes the frame from those hard decisions.
func (d *Demodulator) decideHard(eq []complex128, ar *dsp.Arena) (*frame.Frame, error) {
	symIdx := d.constellation.Slice(ar.Ints(len(eq))[:0], eq)
	bits := d.constellation.UnmapBits(ar.Bytes(len(symIdx) * d.constellation.BitsPerSymbol())[:0], symIdx)
	f, _, err := frame.DecodeBits(bits, d.opts)
	ar.PutBytes(bits)
	ar.PutInts(symIdx)
	return f, err
}

// DemodulateEqualized runs the Demodulate pipeline with an extra
// receiver stage for links with resolvable multipath: after sync and
// offset removal it sounds the symbol-spaced channel from the known
// preamble, designs an MMSE linear equalizer over maxChannelTaps, and
// slices the equalized symbols. On a flat channel it converges to the
// one-tap receiver; on an ISI channel it recovers frames the plain
// pipeline loses.
func (d *Demodulator) DemodulateEqualized(rx []complex128, sps, maxChannelTaps int) UplinkResult {
	return d.demodulateEqualized(rx, sps, maxChannelTaps, func(syms *dsp.Batch, ar *dsp.Arena) (int, float64) {
		// Alignments are ranked by fit residual, not by score, so every
		// alignment is searched alone: a one-lane batch.
		_, lag, score := d.preKern.OffsetImmunePeak(syms, ar)
		return lag, score
	})
}

// eqLanesPool recycles DemodulateEqualized's pair of one-lane
// alignment batches: the current alignment and the best so far.
var eqLanesPool = sync.Pool{New: func() interface{} { return new([2]dsp.Batch) }}

// demodulateEqualized is DemodulateEqualized with the preamble scorer
// of a one-lane alignment batch as a parameter, so the package tests
// can run the same pipeline on their full-correlation oracle.
func (d *Demodulator) demodulateEqualized(rx []complex128, sps, maxChannelTaps int,
	peak func(syms *dsp.Batch, ar *dsp.Arena) (int, float64)) UplinkResult {
	res := UplinkResult{SyncSymbol: -1}
	start := d.m.now()
	defer func() { d.m.observeResult(&res, start) }()
	if maxChannelTaps < 1 {
		res.Err = fmt.Errorf("ap: maxChannelTaps must be >= 1")
		return res
	}
	if sps < 2 || len(rx) < sps*(len(d.preambleBits)+8) {
		res.Err = fmt.Errorf("ap: waveform too short for demodulation")
		return res
	}
	// Under ISI, raw correlation can prefer a sub-symbol alignment that
	// straddles symbol boundaries, so pick the alignment by the quality
	// of the joint channel+offset fit on the preamble instead: the true
	// alignment is the one the linear symbol-level model explains best.
	ar := dsp.GetArena()
	maxSyms := len(rx) / sps
	lanes := eqLanesPool.Get().(*[2]dsp.Batch)
	defer func() {
		eqLanesPool.Put(lanes)
		dsp.PutArena(ar)
	}()
	bestLag, bestScore := -1, 0.0
	bestResidual := math.Inf(1)
	var bestSyms []complex128
	var bestH []complex128
	var bestB complex128
	cur := 0 // the lane the next alignment goes to; the other keeps the best
	for off := 0; off < sps; off++ {
		lane := &lanes[cur]
		lane.Reset(1, maxSyms)
		syms := integrateAndDumpTo(lane.LaneCap(0), rx[off:], sps)
		lane.SetLaneLen(0, len(syms))
		if len(syms) < len(d.centredPre)+maxChannelTaps {
			continue
		}
		lag, score := peak(lane, ar)
		if lag < 0 || score < 0.4 {
			continue
		}
		if len(syms)-lag < len(d.preamblePts)+maxChannelTaps-1 {
			continue
		}
		h, b, err := phy.EstimateCIRWithOffset(syms[lag:], d.preamblePts, maxChannelTaps)
		if err != nil {
			continue
		}
		resid := preambleFitResidual(syms[lag:], d.preamblePts, h, b, maxChannelTaps)
		if resid < bestResidual {
			bestResidual = resid
			bestLag, bestScore = lag, score
			bestSyms, bestH, bestB = syms, h, b
			cur ^= 1
		}
	}
	d.m.observeStage("sync", start)
	res.SyncScore = bestScore
	if bestLag < 0 {
		res.Err = fmt.Errorf("ap: preamble not found")
		return res
	}
	res.SyncSymbol = bestLag
	h, b := bestH, bestB
	res.Gain, res.Offset = h[0], b
	eqStart := d.m.now()
	stream := ar.Complex(len(bestSyms) - bestLag)
	for i := range stream {
		stream[i] = bestSyms[bestLag+i] - b
	}
	h0 := cmplx.Abs(h[0])
	if h0 < 1e-18 {
		res.Err = fmt.Errorf("ap: degenerate channel estimate")
		return res
	}
	nTaps := 4*maxChannelTaps + 9
	delay := (len(h) + nTaps) / 2
	w, err := phy.DesignEqualizer(h, nTaps, delay, 0.01*h0*h0)
	if err != nil {
		res.Err = err
		return res
	}
	eq := phy.EqualizeTo(ar.Complex(len(stream)), stream, w, delay)
	data := eq[len(d.preamblePts):]
	res.EVM = d.constellation.EVM(data)
	d.m.observeStage("equalize", eqStart)
	decStart := d.m.now()
	f, err := d.decideHard(data, ar)
	ar.PutComplex(eq)
	ar.PutComplex(stream)
	d.m.observeStage("fec-decode", decStart)
	if err != nil {
		res.Err = err
		return res
	}
	res.Frame = f
	return res
}

// preambleFitResidual returns the mean squared residual of the joint
// channel+offset model over the preamble span, normalized by |h[0]|².
func preambleFitResidual(stream, pre []complex128, h []complex128, b complex128, maxLag int) float64 {
	h0 := real(h[0])*real(h[0]) + imag(h[0])*imag(h[0])
	if h0 < 1e-30 {
		return math.Inf(1)
	}
	var sum float64
	n := 0
	for i := maxLag - 1; i < len(pre); i++ {
		model := b
		for k, hv := range h {
			model += hv * pre[i-k]
		}
		r := stream[i] - model
		sum += real(r)*real(r) + imag(r)*imag(r)
		n++
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n) / h0
}

// fitGainOffset solves min over (a, b) of sum |r - a*p - b|^2.
func fitGainOffset(r, p []complex128) (a, b complex128, err error) {
	if len(r) != len(p) || len(r) == 0 {
		return 0, 0, fmt.Errorf("ap: gain/offset fit length mismatch")
	}
	n := complex(float64(len(p)), 0)
	var sp, sr complex128
	var spp float64
	var srp complex128
	for i := range p {
		sp += p[i]
		sr += r[i]
		spp += real(p[i])*real(p[i]) + imag(p[i])*imag(p[i])
		srp += r[i] * cmplx.Conj(p[i])
	}
	// Normal equations:
	//   a*spp + b*conj(sp) = srp
	//   a*sp  + b*n        = sr
	det := complex(spp, 0)*n - sp*cmplx.Conj(sp)
	if cmplx.Abs(det) < 1e-18 {
		return 0, 0, fmt.Errorf("ap: degenerate preamble for gain/offset fit")
	}
	a = (srp*n - sr*cmplx.Conj(sp)) / det
	b = (complex(spp, 0)*sr - sp*srp) / det
	if cmplx.Abs(a) < 1e-18 {
		return 0, 0, fmt.Errorf("ap: zero gain estimate")
	}
	return a, b, nil
}
