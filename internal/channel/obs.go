package channel

import (
	"mmtag/internal/obs"
	"mmtag/internal/rfmath"
)

// LinkObs meters link-budget evaluations. The packet-level simulator
// resolves every MAC decision through Link.SNR, so these two instruments
// expose both how hard the budget math is being driven and the SNR
// distribution the network actually operates at. A nil *LinkObs (the
// default) keeps the budget path allocation-free.
type LinkObs struct {
	// Evals counts SNR budget evaluations (channel_budget_evals_total).
	Evals *obs.Counter
	// SNRdB is the distribution of computed link SNRs (channel_snr_db).
	SNRdB *obs.Histogram
}

// NewLinkObs registers the link instruments; nil registry yields nil.
func NewLinkObs(reg *obs.Registry) *LinkObs {
	if reg == nil {
		return nil
	}
	return &LinkObs{
		Evals: reg.Counter("channel_budget_evals_total",
			"Backscatter link-budget SNR evaluations."),
		SNRdB: reg.Histogram("channel_snr_db",
			"SNR produced by the link budget (dB).",
			obs.LinearBuckets(-20, 5, 18)),
	}
}

// Observe records one budget evaluation outcome. Link.SNR calls it for
// every SNR it computes; a caller that answers a repeated query from a
// memo calls it to meter the evaluation the memo stood in for.
func (o *LinkObs) Observe(snr float64) {
	if o == nil {
		return
	}
	o.Evals.Inc()
	o.SNRdB.Observe(rfmath.DB(snr))
}
