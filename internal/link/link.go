// Package link is the tiered-fidelity link engine: one Engine interface
// with three implementations that trade physical fidelity for speed.
// Tier a (Waveform) runs the full waveform DSP chain — vanatta
// modulator, per-sample AWGN, integrate-and-dump, slicing, and the AP
// demodulator for whole frames. Tier b (Symbol) draws symbol-level
// Monte-Carlo outcomes (phy.MeasureBER, the reference E3 validated
// against the waveform chain). Tier c (Budget) samples closed-form
// link-budget outcomes from the rfmath BER/PER expressions with a
// single uniform draw per frame. Thresholds maps a link SNR to the
// cheapest tier that still resolves it, and the calibration suite in
// this package pins each tier to the one above it over the E3 grid.
//
// DESIGN.md: §9 (tiered-fidelity link engine); section 6's fidelity
// levels are the three tiers, made explicit and selectable.
package link

import (
	"fmt"
	"math"

	"mmtag/internal/fastrand"
	"mmtag/internal/mac"
	"mmtag/internal/phy"
)

// Tier identifies a fidelity level of the ladder. Lower values are
// higher fidelity.
type Tier int

const (
	// TierWaveform is the full waveform DSP chain (tier a).
	TierWaveform Tier = iota
	// TierSymbol is symbol-level Monte-Carlo (tier b).
	TierSymbol
	// TierBudget is closed-form link-budget sampling (tier c).
	TierBudget
	numTiers
)

// String returns the ladder letter ("a", "b", "c").
func (t Tier) String() string {
	switch t {
	case TierWaveform:
		return "a"
	case TierSymbol:
		return "b"
	case TierBudget:
		return "c"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Engine is one fidelity level of the link ladder. Implementations are
// safe for serial reuse but not for concurrent use; parallel callers
// build one engine per worker (they are cheap next to the work they
// model).
type Engine interface {
	// MeasureBER estimates the bit error rate of the modulation at
	// linear Eb/N0 over nBits transmitted bits, drawing randomness from
	// rng. Tier c is closed-form and ignores rng.
	MeasureBER(mod mac.Modulation, ebn0 float64, nBits int, rng fastrand.RNG) (phy.BERResult, error)
	// FrameSuccess reports whether a single data frame carrying
	// payloadBytes decodes at the given linear SNR (measured in the
	// rate's symbol-rate noise bandwidth, as mac.Rate.BERAt expects).
	FrameSuccess(r mac.Rate, snr float64, payloadBytes int, rng fastrand.RNG) (bool, error)
}

// Thresholds maps link SNR to the cheapest tier that still resolves
// it: at or above WaveformMinDB the full chain runs, at or above
// SymbolMinDB the symbol Monte-Carlo, below that the closed-form
// budget. The strongest links get the most fidelity because that is
// where waveform effects (sync, settling, quantization) still matter;
// the long tail of weak links is governed by the closed-form curves the
// calibration suite pins.
type Thresholds struct {
	WaveformMinDB float64
	SymbolMinDB   float64
}

// DefaultThresholds reserves the waveform chain for very strong links
// and the symbol tier for the contended middle of the cell.
func DefaultThresholds() Thresholds {
	return Thresholds{WaveformMinDB: 30, SymbolMinDB: 15}
}

// AllBudget forces every link to tier c — the million-tag setting.
func AllBudget() Thresholds {
	return Thresholds{WaveformMinDB: math.Inf(1), SymbolMinDB: math.Inf(1)}
}

// normalized returns a copy with WaveformMinDB >= SymbolMinDB, which
// makes Pick monotone in SNR by construction. NaN bounds disable their
// tier (a NaN comparison is always false, so the pick falls through).
func (t Thresholds) normalized() Thresholds {
	if t.WaveformMinDB < t.SymbolMinDB {
		t.WaveformMinDB = t.SymbolMinDB
	}
	return t
}

// Pick returns the tier serving a link of the given SNR (dB). The
// result is monotone in snrDB: raising the SNR never picks a cheaper
// tier. NaN input lands in tier c, the tier that tolerates arbitrary
// garbage by clamping.
func (t Thresholds) Pick(snrDB float64) Tier {
	n := t.normalized()
	switch {
	case snrDB >= n.WaveformMinDB:
		return TierWaveform
	case snrDB >= n.SymbolMinDB:
		return TierSymbol
	default:
		return TierBudget
	}
}
