package link

import (
	"fmt"
	"math"

	"mmtag/internal/fastrand"
	"mmtag/internal/mac"
	"mmtag/internal/par"
	"mmtag/internal/phy"
)

// Budget is tier c: closed-form link-budget outcome sampling. A frame
// succeeds with the rfmath PER expression's complement; a BER
// measurement is the closed-form curve itself, quantized to the nearest
// error count. The zero value is ready to use, holds no state, and is
// safe for concurrent use.
type Budget struct{}

// clamp01 sanitizes a probability: NaN and negative collapse to 0,
// anything above 1 to 1. The closed-form expressions can emit NaN for
// adversarial SNR inputs (fuzzed geometry), and a probability must
// never leave [0, 1].
func clamp01(p float64) float64 {
	switch {
	case math.IsNaN(p), p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}

// BER returns the closed-form bit error rate of the modulation at
// linear Eb/N0, clamped to [0, 1]. Non-positive or NaN Eb/N0 reports
// the coin-flip rate 0.5, matching mac.Rate.BERAt's convention for a
// dead link.
func (Budget) BER(mod mac.Modulation, ebn0 float64) float64 {
	if math.IsNaN(ebn0) || ebn0 <= 0 {
		return 0.5
	}
	return clamp01(mod.BER(ebn0))
}

// MeasureBER implements Engine: the closed-form curve quantized to
// round(ber*nBits) errors. rng is unused — tier c is deterministic
// given its inputs.
func (b Budget) MeasureBER(mod mac.Modulation, ebn0 float64, nBits int, _ fastrand.RNG) (phy.BERResult, error) {
	if nBits <= 0 {
		return phy.BERResult{}, fmt.Errorf("link: bit count must be positive, got %d", nBits)
	}
	ber := b.BER(mod, ebn0)
	return phy.BERResult{Bits: nBits, Errors: int(math.Round(ber * float64(nBits)))}, nil
}

// SuccessProb returns the frame success probability for airBits on-air
// bits at linear SNR (symbol-rate noise bandwidth), always in [0, 1]
// for any input including NaN and infinities.
func (Budget) SuccessProb(r mac.Rate, snr float64, airBits int) float64 {
	if airBits <= 0 {
		return 1 // no bits at risk
	}
	return clamp01(1 - r.FramePER(snr, airBits))
}

// FrameSuccess implements Engine: one Bernoulli draw against
// SuccessProb over the frame's on-air bits.
func (b Budget) FrameSuccess(r mac.Rate, snr float64, payloadBytes int, rng fastrand.RNG) (bool, error) {
	return rng.Float64() < b.SuccessProb(r, snr, airBitsFor(r, payloadBytes)), nil
}

// FrameOutcome is the allocation-free variant of FrameSuccess, drawing
// from a value-type par.Stream instead of a heap generator. It is one
// frame's outcome; a loop over many frames at a fixed rate, SNR and
// frame size (the scale engine's per-tag loop) computes SuccessProb
// once and compares each draw against it, which is the same outcome
// sequence for the same stream.
func (b Budget) FrameOutcome(r mac.Rate, snr float64, airBits int, s *par.Stream) bool {
	return s.Float64() < b.SuccessProb(r, snr, airBits)
}
