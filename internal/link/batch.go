package link

import (
	"fmt"
	"math"

	"mmtag/internal/channel"
	"mmtag/internal/dsp"
	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/mac"
)

// This file is the tier-a frame path: callers stage any number of
// frame trials (all randomness is drawn at stage time, in stage order,
// so a stage-then-flush sequence consumes every RNG stream exactly as
// one FrameSuccess call per trial would) and then flush the accumulated
// waveforms through ap.Demodulator.DemodulateBatchTo, one pooled
// demodulation pass per modulation group instead of one call per frame.
// FrameSuccess itself is a one-trial stage and flush.
//
// DESIGN.md: section 11 (batched demodulation).

// stagedTrial records what FlushFrames needs to finish one staged
// frame: which demodulator to use, or the already-decided outcome for
// trials that are never demodulated (invalid SNR).
type stagedTrial struct {
	mod     string
	coded   bool
	decided bool // outcome fixed at stage time, no demodulation needed
	ok      bool // that outcome
	taken   bool // already swept into an earlier flush group
}

// FrameBatch accumulates staged frame trials for one batched flush.
// The zero value is ready to use; Reset recycles the buffers. A
// FrameBatch belongs to one Waveform engine and, like the engine, is
// not safe for concurrent use.
type FrameBatch struct {
	rx     dsp.Batch
	trials []stagedTrial
}

// Len returns the number of staged, unflushed trials.
func (b *FrameBatch) Len() int { return len(b.trials) }

// Reset drops staged trials, keeping the backing buffers.
func (b *FrameBatch) Reset() {
	b.rx.Reset(0, b.rx.Stride())
	b.trials = b.trials[:0]
}

// BatchEngine is an Engine whose frame path can amortize receive DSP
// across trials: stage per-trial waveforms (randomness per trial, at
// stage time), then flush the DSP in one batched pass. The contract
// mirrors FrameSuccess trial for trial: flushing N staged trials
// yields exactly the N outcomes N FrameSuccess calls would, from the
// same RNG draws.
type BatchEngine interface {
	Engine
	// StageFrame generates (but does not demodulate) one frame trial
	// into b, drawing all of the trial's randomness from rng now.
	StageFrame(b *FrameBatch, r mac.Rate, snr float64, payloadBytes int, rng fastrand.RNG) error
	// FlushFrames demodulates every staged trial with the batched
	// kernel and appends one success flag per trial, in stage order,
	// to dst. The batch is reset on return.
	FlushFrames(b *FrameBatch, dst []bool) ([]bool, error)
}

var _ BatchEngine = (*Waveform)(nil)

// StageFrame implements BatchEngine: the transmit half of
// FrameSuccess. The waveform is synthesized straight into a batch
// lane; sync, channel estimation, decision and CRC wait for
// FlushFrames.
func (w *Waveform) StageFrame(b *FrameBatch, r mac.Rate, snr float64, payloadBytes int, rng fastrand.RNG) error {
	if math.IsNaN(snr) || snr <= 0 {
		// An invalid operating point fails without touching rng; keep a
		// placeholder lane so trial i is always lane i.
		b.rx.AddLane()
		b.trials = append(b.trials, stagedTrial{decided: true})
		return nil
	}
	if payloadBytes < 0 {
		return fmt.Errorf("link: payload bytes must be >= 0, got %d", payloadBytes)
	}
	c, err := w.constellation(r.Mod.Name)
	if err != nil {
		return err
	}
	dem, err := w.demodulator(r.Mod.Name, r.Coded)
	if err != nil {
		return err
	}
	m, err := w.modulator(r.Mod.Name)
	if err != nil {
		return err
	}
	payload := make([]byte, payloadBytes)
	rng.Read(payload)
	f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: payload}
	bits, err := f.EncodeBits(frame.Options{Coded: r.Coded})
	if err != nil {
		return err
	}
	syms := append(w.syms[:0], dem.PreambleSymbolIndices()...)
	syms = c.MapBits(syms, bits)
	w.syms = syms
	if need := len(syms) * waveformSPS; need > b.rx.Stride() {
		b.rx.Restride(need)
	}
	l := b.rx.AddLane()
	wave := m.Waveform(b.rx.LaneCap(l)[:0], syms)
	// snr is Es/N0 (noise bandwidth = symbol rate); the demodulator's
	// integrate-and-dump divides per-sample noise power by sps.
	es := c.MeanPower()
	channel.AWGN(rng, wave, es/snr*waveformSPS)
	b.rx.SetLaneLen(l, len(wave))
	b.trials = append(b.trials, stagedTrial{mod: r.Mod.Name, coded: r.Coded})
	return nil
}

// FlushFrames implements BatchEngine. Trials are grouped by
// demodulator (modulation × coding) in first-stage order, and each
// group sweeps DemodulateBatchTo once.
func (w *Waveform) FlushFrames(b *FrameBatch, dst []bool) ([]bool, error) {
	base := len(dst)
	for _, tr := range b.trials {
		dst = append(dst, tr.decided && tr.ok)
	}
	for g := 0; g < len(b.trials); g++ {
		lead := b.trials[g]
		if lead.decided || lead.taken {
			continue
		}
		idx := w.flushIdx[:0]
		for i := g; i < len(b.trials); i++ {
			t := &b.trials[i]
			if !t.decided && !t.taken && t.mod == lead.mod && t.coded == lead.coded {
				idx = append(idx, i)
				t.taken = true
			}
		}
		w.flushIdx = idx
		dem, err := w.demodulator(lead.mod, lead.coded)
		if err != nil {
			return dst, err
		}
		group := &b.rx
		if len(idx) != len(b.trials) {
			// Mixed batch: gather this group's lanes. A homogeneous batch
			// (every trial one demodulator — the common chunked case)
			// skips the copy and sweeps the staged lanes in place.
			w.flushRx.Reset(len(idx), b.rx.Stride())
			for j, i := range idx {
				lane := b.rx.Lane(i)
				copy(w.flushRx.LaneCap(j), lane)
				w.flushRx.SetLaneLen(j, len(lane))
			}
			group = &w.flushRx
		}
		res := dem.DemodulateBatchTo(w.flushRes[:0], group, waveformSPS)
		w.flushRes = res
		if group == &b.rx {
			for _, i := range idx {
				dst[base+i] = res[i].OK()
			}
		} else {
			for j, i := range idx {
				dst[base+i] = res[j].OK()
			}
		}
	}
	b.Reset()
	return dst, nil
}
