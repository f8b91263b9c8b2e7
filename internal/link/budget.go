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
// frame's outcome; a loop over many frames at a fixed rate and frame
// size (the scale engine's per-tag loop) decides each draw with a
// BudgetTable's FrameBracket instead, which is the same outcome
// sequence for the same stream.
func (b Budget) FrameOutcome(r mac.Rate, snr float64, airBits int, s *par.Stream) bool {
	return s.Float64() < b.SuccessProb(r, snr, airBits)
}

// Bracket-table layout. A bin is keyed on the bits of the linear SNR:
// the float64 exponent plus the top bracketMantissaBits of the
// mantissa, so every bin edge is an exact float64, finding a bin needs
// no logarithm, and a bin spans 1/32 of an octave (0.07–0.13 dB). The
// table covers linear SNR [2^bracketMinExp, 2^bracketMaxExp) — −72 dB
// to +96 dB, 1,792 bins — well beyond the −5…+84 dB that 32 m-cell
// scale deployments produce at the probe rate.
const (
	bracketMantissaBits = 5
	bracketShift        = 52 - bracketMantissaBits
	bracketMinExp       = -24
	bracketMaxExp       = 32
	bracketBins         = (bracketMaxExp - bracketMinExp) << bracketMantissaBits
	// bracketKey0 is the key of 2^bracketMinExp: its biased exponent
	// (IEEE 754 bias 1023) with a zero mantissa.
	bracketKey0 uint64 = (1023 + bracketMinExp) << bracketMantissaBits
	// bracketMargin widens every bracket by an absolute amount that
	// covers the ulp-level non-monotonicity of the computed curve
	// (rounding moves SuccessProb by a few 1e-16 at most).
	bracketMargin = 1e-12
)

// bracketEdge returns the SNR at which bin j of the table starts.
func bracketEdge(j int) float64 {
	return math.Float64frombits((bracketKey0 + uint64(j)) << bracketShift)
}

// BudgetTable brackets Budget.SuccessProb for one rate and frame size,
// so most frame draws are decided by a comparison instead of the
// closed form. It holds SuccessProb at every bin edge; bin j's bracket
// is [p(edge j), p(edge j+1)] widened by bracketMargin on both sides.
// That contains SuccessProb at every SNR in the bin because the
// success probability does not decrease with SNR: every closed-form
// BER curve in mac falls with Eb/N0. TestBudgetTableBracketsSuccessProb
// sweeps every bin to hold the premise. A table is read-only after
// NewBudgetTable and safe for concurrent use.
type BudgetTable struct {
	rate    mac.Rate
	airBits int
	p       [bracketBins + 1]float64 // SuccessProb at each bin edge
}

// NewBudgetTable evaluates SuccessProb at every bin edge for frames of
// airBits on-air bits at rate r — about 1,800 closed-form evaluations,
// so build one per deployment, not per call.
func NewBudgetTable(r mac.Rate, airBits int) *BudgetTable {
	t := &BudgetTable{rate: r, airBits: airBits}
	var b Budget
	for j := range t.p {
		t.p[j] = b.SuccessProb(r, bracketEdge(j), airBits)
	}
	return t
}

// At returns the frame decision for linear SNR snr (symbol-rate noise
// bandwidth). Outside the table — below 2^-24 (zero and negative
// SNRs too), from 2^32 up, infinite or NaN — the bracket is empty and
// every draw takes the exact path.
func (t *BudgetTable) At(snr float64) FrameBracket {
	b := FrameBracket{lo: math.Inf(-1), hi: math.Inf(1), snr: snr, t: t}
	// Below the table the subtraction wraps, and negative SNRs and NaNs
	// carry high bits, so one unsigned compare rejects all of them.
	if j := math.Float64bits(snr)>>bracketShift - bracketKey0; j < bracketBins {
		b.lo = t.p[j] - bracketMargin
		b.hi = t.p[j+1] + bracketMargin
	}
	return b
}

// FrameBracket decides frames at one SNR: lo <= SuccessProb < hi.
// Delivered computes the closed form at most once, the first time a
// draw lands inside the bracket.
type FrameBracket struct {
	lo, hi float64
	snr    float64
	t      *BudgetTable
	p      float64 // SuccessProb, valid once exact is set
	exact  bool
}

// Delivered reports whether draw u delivers the frame: exactly
// u < SuccessProb(rate, snr, airBits), the comparison FrameOutcome
// makes, for any u.
func (b *FrameBracket) Delivered(u float64) bool {
	if u < b.lo {
		return true
	}
	if u >= b.hi {
		return false
	}
	return b.deliveredExact(u)
}

// deliveredExact is Delivered's slow path, for draws inside the
// bracket; kept apart so that Delivered inlines into the frame loop.
func (b *FrameBracket) deliveredExact(u float64) bool {
	if !b.exact {
		b.p = Budget{}.SuccessProb(b.t.rate, b.snr, b.t.airBits)
		b.exact = true
	}
	return u < b.p
}
