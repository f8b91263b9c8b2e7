package tag

import (
	"fmt"
	"math"
)

// Harvester models the RF energy-harvesting path of a battery-free tag:
// a rectifier converts a slice of the incident carrier power into DC
// with an efficiency that depends on input power (rectifiers are poor at
// low drive and saturate at high drive), feeding a storage capacitor
// that the node's loads draw from.
//
// This is the extension path for fully battery-free mmTag nodes: the
// harvest-limited duty cycle at a given distance falls out of the same
// link budget the communication experiments use.
type Harvester struct {
	// SplitFraction is the share of incident RF power routed to the
	// rectifier rather than the communication path (0, 1).
	SplitFraction float64
	// PeakEfficiency is the rectifier's best-case RF-to-DC efficiency.
	PeakEfficiency float64
	// KneeW is the input power (watts) at which efficiency reaches half
	// its peak; below the knee, efficiency falls off quickly (diode
	// threshold behaviour).
	KneeW float64
	// SensitivityW is the minimum input below which the rectifier
	// produces nothing at all.
	SensitivityW float64
}

// DefaultHarvester returns a 24 GHz rectifier model of the class
// reported for mmWave rectennas: ~35% peak efficiency, -10 dBm knee,
// -20 dBm sensitivity.
func DefaultHarvester() Harvester {
	return Harvester{
		SplitFraction:  0.5,
		PeakEfficiency: 0.35,
		KneeW:          1e-4, // -10 dBm
		SensitivityW:   1e-5, // -20 dBm
	}
}

// Validate reports parameter errors, NaN and ±Inf among them: every
// range check below is false for NaN, so without the first case a NaN
// field would pass them all.
func (h Harvester) Validate() error {
	switch {
	case !finite(h.SplitFraction, h.PeakEfficiency, h.KneeW, h.SensitivityW):
		return fmt.Errorf("tag: harvester parameters must be finite, got %+v", h)
	case h.SplitFraction <= 0 || h.SplitFraction >= 1:
		return fmt.Errorf("tag: harvest split must be in (0,1), got %g", h.SplitFraction)
	case h.PeakEfficiency <= 0 || h.PeakEfficiency > 1:
		return fmt.Errorf("tag: peak efficiency must be in (0,1], got %g", h.PeakEfficiency)
	case h.KneeW <= 0 || h.SensitivityW < 0:
		return fmt.Errorf("tag: knee must be positive and sensitivity non-negative")
	case h.SensitivityW >= h.KneeW:
		return fmt.Errorf("tag: sensitivity %g must sit below the knee %g", h.SensitivityW, h.KneeW)
	}
	return nil
}

// finite reports whether every v is neither NaN nor ±Inf.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Efficiency returns the RF-to-DC conversion efficiency at the given
// rectifier input power (watts): zero below sensitivity, rising through
// the knee, saturating at the peak.
func (h Harvester) Efficiency(inputW float64) float64 {
	if inputW < h.SensitivityW || inputW <= 0 {
		return 0
	}
	// Saturating curve eff(p) = peak * p/(p + knee), shifted and
	// rescaled so eff(sensitivity) = 0 and eff(inf) = peak.
	raw := h.PeakEfficiency * inputW / (inputW + h.KneeW)
	base := h.PeakEfficiency * h.SensitivityW / (h.SensitivityW + h.KneeW)
	eff := h.PeakEfficiency * (raw - base) / (h.PeakEfficiency - base)
	if eff < 0 {
		return 0
	}
	if eff > h.PeakEfficiency {
		return h.PeakEfficiency
	}
	return eff
}

// HarvestedPowerW returns the DC power extracted from an incident
// carrier power (watts) at the tag antenna port.
func (h Harvester) HarvestedPowerW(incidentW float64) float64 {
	in := incidentW * h.SplitFraction
	return in * h.Efficiency(in)
}

// DutyCycle returns the sustainable fraction of time the tag can run a
// load of loadW watts, banking harvested energy in storage while idle
// at sleepW. It returns a value in [0, 1]: 1 means continuous
// operation, 0 means the harvest cannot even cover sleep.
func (h Harvester) DutyCycle(incidentW, loadW, sleepW float64) float64 {
	if loadW <= 0 {
		panic("tag: load power must be positive")
	}
	harvest := h.HarvestedPowerW(incidentW)
	if harvest <= sleepW {
		return 0
	}
	if harvest >= loadW {
		return 1
	}
	// Energy balance: d*load + (1-d)*sleep = harvest.
	d := (harvest - sleepW) / (loadW - sleepW)
	return math.Max(0, math.Min(1, d))
}

// SustainedBitRate returns the average uplink bit rate a battery-free
// tag can sustain at the given incident power, running the calibrated
// power model at burstBitRate during active bursts.
func (h Harvester) SustainedBitRate(incidentW float64, p PowerModel, burstBitRate float64, bitsPerSymbol int) float64 {
	load := p.BackscatterPowerW(burstBitRate / float64(bitsPerSymbol))
	d := h.DutyCycle(incidentW, load, p.SleepPowerW())
	return d * burstBitRate
}

// TimeToCharge returns the seconds needed to charge a storage capacitor
// of capF farads from vFrom to vTo volts at the given incident power.
// It returns +Inf when nothing is harvested.
func (h Harvester) TimeToCharge(incidentW, capF, vFrom, vTo float64) float64 {
	if capF <= 0 || vTo <= vFrom {
		panic("tag: invalid storage parameters")
	}
	pw := h.HarvestedPowerW(incidentW)
	if pw <= 0 {
		return math.Inf(1)
	}
	energy := 0.5 * capF * (vTo*vTo - vFrom*vFrom)
	return energy / pw
}
