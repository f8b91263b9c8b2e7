// Package mac implements the mmTag medium-access layer run by the access
// point: beam-swept tag discovery with slotted contention, TDMA polling
// of discovered tags, stop-and-wait ARQ, and SNR-driven link adaptation
// over the backscatter rate table.
//
// The MAC is written against the small Medium interface so the same
// logic runs over the packet-level simulator (internal/sim) and over
// analytic link budgets in the benchmarks.
//
// DESIGN.md: section 1 (protocol reconstruction) and section 3 (module
// inventory).
package mac

import (
	"fmt"
	"math"

	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

// Modulation couples a backscatter alphabet with its closed-form AWGN
// bit-error behaviour.
type Modulation struct {
	// Name matches the vanatta.StateSet name.
	Name string
	// BitsPerSymbol is log2 of the alphabet size.
	BitsPerSymbol int
	// Efficiency is the alphabet's mean reflected power (|Γ|²),
	// entering the link budget.
	Efficiency float64
	// BER returns the bit error rate at linear Eb/N0.
	BER func(ebn0 float64) float64
}

// ModOOK returns on-off keying.
func ModOOK() Modulation {
	return Modulation{Name: "ook", BitsPerSymbol: 1,
		Efficiency: vanatta.OOK().MeanReflectedPower(), BER: rfmath.BEROOK}
}

// ModBPSK returns binary phase modulation.
func ModBPSK() Modulation {
	return Modulation{Name: "bpsk", BitsPerSymbol: 1,
		Efficiency: vanatta.BPSK().MeanReflectedPower(), BER: rfmath.BERBPSK}
}

// ModQPSK returns quadrature phase modulation.
func ModQPSK() Modulation {
	return Modulation{Name: "qpsk", BitsPerSymbol: 2,
		Efficiency: vanatta.QPSK().MeanReflectedPower(), BER: rfmath.BERQPSK}
}

// ModPSK8 returns the eight-phase alphabet.
func ModPSK8() Modulation {
	return Modulation{Name: "8psk", BitsPerSymbol: 3,
		Efficiency: vanatta.PSK8().MeanReflectedPower(),
		BER:        func(e float64) float64 { return rfmath.BERMPSK(8, e) }}
}

// ModQAM16 returns the 16-state multi-level alphabet.
func ModQAM16() Modulation {
	return Modulation{Name: "16qam", BitsPerSymbol: 4,
		Efficiency: vanatta.QAM16().MeanReflectedPower(),
		BER:        func(e float64) float64 { return rfmath.BERMQAM(16, e) }}
}

// Rate is one entry of the link-adaptation table.
type Rate struct {
	Mod Modulation
	// BitRate is the information bit rate on air (before coding).
	BitRate float64
	// Coded applies the rate-1/2 convolutional code: halves goodput,
	// buys coding gain.
	Coded bool
}

// Goodput returns the post-coding information rate.
func (r Rate) Goodput() float64 {
	if r.Coded {
		return r.BitRate / 2
	}
	return r.BitRate
}

// SymbolRate returns the backscatter switching rate the tag needs.
func (r Rate) SymbolRate() float64 { return r.BitRate / float64(r.Mod.BitsPerSymbol) }

// String renders "qpsk-50M" style names.
func (r Rate) String() string {
	c := ""
	if r.Coded {
		c = "-coded"
	}
	return fmt.Sprintf("%s-%gM%s", r.Mod.Name, r.BitRate/1e6, c)
}

// CodingGainDB is the modelled soft-decision Viterbi (K=7, r=1/2)
// coding gain applied to Eb/N0 in PER prediction. 4.5 dB is the
// textbook value at BER ~1e-5. Exported so the tiered link engines
// price coded rates identically to the MAC's prediction.
const CodingGainDB = 4.5

// BERAt returns the predicted bit error rate for this rate at the given
// linear SNR, where SNR is measured in the symbol-rate noise bandwidth
// (matched filter). Coded rates see the modelled coding gain.
func (r Rate) BERAt(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	// Es/N0 = SNR (noise bandwidth = symbol rate); Eb counts
	// information bits on air.
	ebn0 := snr / float64(r.Mod.BitsPerSymbol)
	if r.Coded {
		ebn0 *= rfmath.FromDB(CodingGainDB)
	}
	return r.Mod.BER(ebn0)
}

// FramePER returns the predicted packet error rate for a frame of
// airBits at linear SNR.
func (r Rate) FramePER(snr float64, airBits int) float64 {
	return rfmath.PERFromBER(r.BERAt(snr), airBits)
}

// DefaultRateTable returns the link-adaptation ladder in ascending
// goodput order: robust coded OOK at the bottom, 16-QAM at 100 Mb/s
// (25 Msym/s switching) at the top.
func DefaultRateTable() []Rate {
	return []Rate{
		{Mod: ModOOK(), BitRate: 1e6, Coded: true},
		{Mod: ModOOK(), BitRate: 2e6},
		{Mod: ModBPSK(), BitRate: 10e6, Coded: true},
		{Mod: ModBPSK(), BitRate: 10e6},
		{Mod: ModQPSK(), BitRate: 20e6},
		{Mod: ModQPSK(), BitRate: 50e6},
		{Mod: ModQPSK(), BitRate: 100e6},
		{Mod: ModQAM16(), BitRate: 100e6},
	}
}

// PickRate selects the highest-goodput rate whose predicted PER for
// frames of airBits stays at or below targetPER, given a function that
// maps a candidate rate to its link SNR (the SNR depends on the rate:
// wider noise bandwidth and alphabet efficiency both move it).
//
// When no rate meets target — an attenuated, blocked or browned-out
// tag — it never errors: it falls back to the most robust usable rate
// and reports degraded=true, so the caller's tag is slow rather than
// invisible. Errors are reserved for configuration mistakes (empty
// table, nonsensical target).
func PickRate(table []Rate, targetPER float64, airBits int, snrFor func(Rate) float64) (r Rate, degraded bool, err error) {
	if err := checkLadder(table, targetPER); err != nil {
		return Rate{}, false, err
	}
	best := bestRate(table, targetPER, airBits, func(i int) float64 { return snrFor(table[i]) })
	if best < 0 {
		return table[robustRate(table, snrFor)], true, nil
	}
	return table[best], false, nil
}

// checkLadder reports the configuration mistakes PickRate errors on.
func checkLadder(table []Rate, targetPER float64) error {
	if len(table) == 0 {
		return fmt.Errorf("mac: empty rate table")
	}
	if targetPER <= 0 || targetPER >= 1 {
		return fmt.Errorf("mac: target PER must be in (0,1), got %g", targetPER)
	}
	return nil
}

// bestRate is PickRate's first pass: the index of the highest-goodput
// entry whose predicted PER at snrAt(i) meets the target, or -1. It
// calls snrAt once per entry, in table order.
func bestRate(table []Rate, targetPER float64, airBits int, snrAt func(i int) float64) int {
	best := -1
	bestGoodput := -math.MaxFloat64
	for i, r := range table {
		per := r.FramePER(snrAt(i), airBits)
		if per <= targetPER && r.Goodput() > bestGoodput {
			best, bestGoodput = i, r.Goodput()
		}
	}
	return best
}

// robustRate is PickRate's fallback when no entry meets the target: the
// most robust usable entry (positive SNR means the tag supports and
// hears the rate), asking snrFor once per entry in table order; when
// nothing is usable, the most robust entry overall.
func robustRate(table []Rate, snrFor func(Rate) float64) int {
	mostRobust := func(pred func(Rate) bool) int {
		idx := -1
		for i, r := range table {
			if !pred(r) {
				continue
			}
			if idx < 0 || r.Goodput() < table[idx].Goodput() {
				idx = i
			}
		}
		return idx
	}
	best := mostRobust(func(r Rate) bool { return snrFor(r) > 0 })
	if best < 0 {
		best = mostRobust(func(Rate) bool { return true })
	}
	return best
}
