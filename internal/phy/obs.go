package phy

import (
	"math/rand"
	"time"

	"mmtag/internal/fastrand"
	"mmtag/internal/obs"
)

// BERMeter wraps the Monte-Carlo BER/SER measurements with metering:
// trials, bits and errors land in counters and each trial's wall cost in
// a histogram, so evaluation sweeps (E3, E12 and friends) expose where
// their time goes. A nil *BERMeter runs the plain measurement.
type BERMeter struct {
	trials  *obs.Counter   // phy_ber_trials_total
	bits    *obs.Counter   // phy_ber_bits_total
	errors  *obs.Counter   // phy_ber_errors_total
	trialNs *obs.Histogram // phy_ber_trial_ns
}

// NewBERMeter registers the instruments; nil registry yields nil (which
// is still usable — measurements just run unmetered).
func NewBERMeter(reg *obs.Registry) *BERMeter {
	if reg == nil {
		return nil
	}
	return &BERMeter{
		trials: reg.Counter("phy_ber_trials_total",
			"Monte-Carlo BER/SER trials executed."),
		bits: reg.Counter("phy_ber_bits_total",
			"Bits simulated across BER trials."),
		errors: reg.Counter("phy_ber_errors_total",
			"Bit errors observed across BER trials."),
		trialNs: reg.Histogram("phy_ber_trial_ns",
			"Wall-clock cost of one BER trial (ns).",
			obs.ExponentialBuckets(1000, 4, 10)),
	}
}

// MeasureBER runs MeasureBER, metering the trial when instrumented.
func (m *BERMeter) MeasureBER(c *Constellation, ebn0 float64, nBits int, rng fastrand.RNG) (BERResult, error) {
	if m == nil {
		return MeasureBER(c, ebn0, nBits, rng)
	}
	start := time.Now()
	res, err := MeasureBER(c, ebn0, nBits, rng)
	if err != nil {
		return res, err
	}
	m.trials.Inc()
	m.bits.Add(float64(res.Bits))
	m.errors.Add(float64(res.Errors))
	m.trialNs.Observe(float64(time.Since(start).Nanoseconds()))
	return res, nil
}

// MeasureSER runs MeasureSER, metering the trial when instrumented.
func (m *BERMeter) MeasureSER(c *Constellation, esn0 float64, nSymbols int, rng *rand.Rand) (float64, error) {
	if m == nil {
		return MeasureSER(c, esn0, nSymbols, rng)
	}
	start := time.Now()
	ser, err := MeasureSER(c, esn0, nSymbols, rng)
	if err != nil {
		return ser, err
	}
	m.trials.Inc()
	m.trialNs.Observe(float64(time.Since(start).Nanoseconds()))
	return ser, nil
}
