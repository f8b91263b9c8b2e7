// Package fault is the simulator's deterministic fault-injection
// substrate. A Plan declares which impairments a run suffers —
// Gilbert–Elliott burst blockage, permanent tag death, transient
// energy-harvest brownout, ACK loss on the AP→tag feedback path, and
// SNR-estimate corruption — and an Injector applies the plan by
// wrapping the MAC's Medium view of the radio.
//
// Every fault draws its randomness from a private RNG stream derived
// via par.Derive from the run seed and the fault's grid coordinates
// (fault kind × tag ID), never from wall-clock time or scheduling
// order. Two runs with the same seed and the same plan therefore
// produce byte-identical results at any -parallel width: the streams
// exist independently of which worker executes the run and of how many
// queries other tags' faults answered first.
//
// DESIGN.md: section 3 (module inventory); drives the chaos-soak
// experiments R1-R3 of section 4.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mmtag/internal/rfmath"
	"mmtag/internal/tag"
)

// BlockagePlan is a continuous-time Gilbert–Elliott burst process per
// tag: the link alternates between a clear (good) state and a blocked
// (bad) state with exponentially distributed dwell times, the standard
// two-state Markov model for mmWave blockage dynamics. While blocked,
// the tag's uplink SNR is attenuated by AttenuationDB.
type BlockagePlan struct {
	// AttenuationDB is the extra link loss while blocked (a human body
	// at mmWave costs 20-40 dB).
	AttenuationDB float64
	// MeanClearS is the mean dwell in the clear state (0.02 s default).
	MeanClearS float64
	// MeanBlockedS is the mean dwell in the blocked state (0.005 s
	// default).
	MeanBlockedS float64
}

func (p *BlockagePlan) withDefaults() *BlockagePlan {
	q := *p
	if q.MeanClearS == 0 {
		q.MeanClearS = 0.02
	}
	if q.MeanBlockedS == 0 {
		q.MeanBlockedS = 0.005
	}
	return &q
}

// DeathPlan kills a random subset of the population permanently: each
// tag independently dies with probability Prob at a time drawn from an
// exponential with mean MeanLifetimeS. A dead tag is inaudible forever
// — the network-level model of hardware failure or removal.
type DeathPlan struct {
	// Prob is each tag's probability of dying during the run.
	Prob float64
	// MeanLifetimeS is the mean of the exponential death time (0.05 s
	// default).
	MeanLifetimeS float64
}

func (p *DeathPlan) withDefaults() *DeathPlan {
	q := *p
	if q.MeanLifetimeS == 0 {
		q.MeanLifetimeS = 0.05
	}
	return &q
}

// BrownoutPlan models energy-harvest starvation of battery-free tags:
// the harvester (internal/tag) converts the incident carrier into DC,
// and the sustainable duty cycle at that power determines what fraction
// of each PeriodS the tag is awake. Below the duty threshold the tag
// browns out — inaudible until its storage recovers. Each tag gets a
// random phase so the population does not brown out in lockstep.
type BrownoutPlan struct {
	// IncidentPowerW is the carrier power at the harvester input.
	IncidentPowerW float64
	// PeriodS is the charge/discharge cycle period (0.01 s default).
	PeriodS float64
	// LoadW is the awake-state draw the harvest must sustain (20 µW
	// default — a duty-cycled wake-receiver budget).
	LoadW float64
	// Harvester is the rectifier model; tag.DefaultHarvester when
	// zero-valued (detected via PeakEfficiency == 0).
	Harvester tag.Harvester
}

func (p *BrownoutPlan) withDefaults() *BrownoutPlan {
	q := *p
	if q.PeriodS == 0 {
		q.PeriodS = 0.01
	}
	if q.LoadW == 0 {
		q.LoadW = 20e-6
	}
	if q.Harvester.PeakEfficiency == 0 {
		q.Harvester = tag.DefaultHarvester()
	}
	return &q
}

// DutyCycle returns the awake fraction the plan's harvest sustains.
func (p *BrownoutPlan) DutyCycle() float64 {
	q := p.withDefaults()
	return q.Harvester.DutyCycle(q.IncidentPowerW, q.LoadW,
		tag.DefaultPowerModel().SleepPowerW())
}

// AckLossPlan drops AP→tag feedback: each delivered uplink frame's ACK
// is lost with probability Prob, so the tag retransmits a frame the AP
// already holds and the MAC's duplicate detection must absorb it.
type AckLossPlan struct {
	// Prob is the per-ACK loss probability.
	Prob float64
}

// SNRNoisePlan corrupts the MAC's SNR estimates: every query's answer
// is scaled by a log-normal factor with the given dB standard
// deviation, so link adaptation sometimes picks a rate the true channel
// cannot support (or needlessly backs off).
type SNRNoisePlan struct {
	// SigmaDB is the standard deviation of the multiplicative estimate
	// error, in dB.
	SigmaDB float64
}

// Plan composes the enabled fault processes. A nil sub-plan disables
// that fault; the zero Plan injects nothing.
type Plan struct {
	Blockage *BlockagePlan
	Death    *DeathPlan
	Brownout *BrownoutPlan
	AckLoss  *AckLossPlan
	SNRNoise *SNRNoisePlan
}

// Empty reports whether the plan enables no fault at all.
func (p Plan) Empty() bool {
	return p.Blockage == nil && p.Death == nil && p.Brownout == nil &&
		p.AckLoss == nil && p.SNRNoise == nil
}

// Validate reports parameter errors.
func (p Plan) Validate() error {
	if b := p.Blockage; b != nil {
		if err := finite("blockage", b.AttenuationDB, b.MeanClearS, b.MeanBlockedS); err != nil {
			return err
		}
		if b.AttenuationDB <= 0 {
			return fmt.Errorf("fault: blockage attenuation must be positive, got %g dB", b.AttenuationDB)
		}
		if b.MeanClearS < 0 || b.MeanBlockedS < 0 {
			return fmt.Errorf("fault: blockage dwell means must be non-negative")
		}
	}
	if d := p.Death; d != nil {
		if err := finite("death", d.Prob, d.MeanLifetimeS); err != nil {
			return err
		}
		if d.Prob < 0 || d.Prob > 1 {
			return fmt.Errorf("fault: death probability must be in [0,1], got %g", d.Prob)
		}
		if d.MeanLifetimeS < 0 {
			return fmt.Errorf("fault: mean lifetime must be non-negative")
		}
	}
	if b := p.Brownout; b != nil {
		if err := finite("brownout", b.IncidentPowerW, b.PeriodS, b.LoadW); err != nil {
			return err
		}
		// A subnormal power (below about -3046 dBm) keeps too few bits
		// for String's dBm form to parse back to the same plan.
		if b.IncidentPowerW < 0x1p-1022 {
			return fmt.Errorf("fault: brownout incident power must be positive and normal, got %g W", b.IncidentPowerW)
		}
		if b.PeriodS < 0 || b.LoadW < 0 {
			return fmt.Errorf("fault: brownout period and load must be non-negative")
		}
		if err := b.withDefaults().Harvester.Validate(); err != nil {
			return err
		}
	}
	if a := p.AckLoss; a != nil {
		if err := finite("ack-loss", a.Prob); err != nil {
			return err
		}
		if a.Prob < 0 || a.Prob > 1 {
			return fmt.Errorf("fault: ack-loss probability must be in [0,1], got %g", a.Prob)
		}
	}
	if s := p.SNRNoise; s != nil {
		if err := finite("SNR noise", s.SigmaDB); err != nil {
			return err
		}
		if s.SigmaDB < 0 {
			return fmt.Errorf("fault: SNR noise sigma must be non-negative, got %g dB", s.SigmaDB)
		}
	}
	return nil
}

// finite rejects NaN and ±Inf among a fault kind's parameters. Every
// range check in Validate is false for NaN, so without this a NaN would
// pass them all.
func finite(kind string, vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("fault: %s parameters must be finite, got %g", kind, v)
		}
	}
	return nil
}

// String renders the canonical spec form, parseable by ParseSpec.
func (p Plan) String() string {
	var parts []string
	if b := p.Blockage; b != nil {
		q := b.withDefaults()
		parts = append(parts,
			"blockage="+trim(q.AttenuationDB),
			"clear="+trim(q.MeanClearS),
			"blocked="+trim(q.MeanBlockedS))
	}
	if d := p.Death; d != nil {
		q := d.withDefaults()
		parts = append(parts, "death="+trim(q.Prob), "lifetime="+trim(q.MeanLifetimeS))
	}
	if b := p.Brownout; b != nil {
		q := b.withDefaults()
		parts = append(parts,
			"brownout="+trim(toDBm(q.IncidentPowerW)),
			"period="+trim(q.PeriodS))
	}
	if a := p.AckLoss; a != nil {
		parts = append(parts, "ackloss="+trim(a.Prob))
	}
	if s := p.SNRNoise; s != nil {
		parts = append(parts, "snr="+trim(s.SigmaDB))
	}
	return strings.Join(parts, ",")
}

func trim(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// toDBm converts watts to dBm (inverse of rfmath.FromDBm), rounded to
// a micro-dB so String ∘ ParseSpec is a fixed point despite the
// log/exp float round trip.
func toDBm(w float64) float64 {
	return math.Round((10*math.Log10(w)+30)*1e6) / 1e6
}

// ParseSpec parses a comma-separated key=value fault spec into a Plan:
//
//	blockage=<dB>   Gilbert–Elliott burst blockage of this depth
//	clear=<s>       mean clear dwell (default 0.02)
//	blocked=<s>     mean blocked dwell (default 0.005)
//	death=<prob>    per-tag permanent death probability
//	lifetime=<s>    mean death time (default 0.05)
//	brownout=<dBm>  harvester incident power (starvation below ~-8 dBm)
//	period=<s>      brownout duty period (default 0.01)
//	ackloss=<prob>  AP→tag ACK loss probability
//	snr=<dB>        SNR-estimate corruption sigma
//
// Example: "blockage=30,death=0.25,ackloss=0.2". An empty spec returns
// a nil plan (no faults).
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var p Plan
	blockage := func() *BlockagePlan {
		if p.Blockage == nil {
			p.Blockage = &BlockagePlan{}
		}
		return p.Blockage
	}
	death := func() *DeathPlan {
		if p.Death == nil {
			p.Death = &DeathPlan{}
		}
		return p.Death
	}
	brownout := func() *BrownoutPlan {
		if p.Brownout == nil {
			p.Brownout = &BrownoutPlan{}
		}
		return p.Brownout
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, valStr, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: spec entry %q is not key=value", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, fmt.Errorf("fault: spec key %q: %v", key, err)
		}
		if seen[key] {
			return nil, fmt.Errorf("fault: spec key %q repeated", key)
		}
		seen[key] = true
		switch key {
		case "blockage":
			blockage().AttenuationDB = v
		case "clear":
			blockage().MeanClearS = v
		case "blocked":
			blockage().MeanBlockedS = v
		case "death":
			death().Prob = v
		case "lifetime":
			death().MeanLifetimeS = v
		case "brownout":
			brownout().IncidentPowerW = rfmath.FromDBm(v)
		case "period":
			brownout().PeriodS = v
		case "ackloss":
			p.AckLoss = &AckLossPlan{Prob: v}
		case "snr":
			p.SNRNoise = &SNRNoisePlan{SigmaDB: v}
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q (want %s)", key, strings.Join(specKeys(), ", "))
		}
	}
	if p.Blockage != nil && p.Blockage.AttenuationDB == 0 {
		return nil, fmt.Errorf("fault: clear=/blocked= need blockage=<dB> to enable the burst process")
	}
	if p.Death != nil && p.Death.Prob == 0 {
		return nil, fmt.Errorf("fault: lifetime= needs death=<prob> to enable tag death")
	}
	if p.Brownout != nil && p.Brownout.IncidentPowerW == 0 {
		return nil, fmt.Errorf("fault: period= needs brownout=<dBm> to enable harvest starvation")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

func specKeys() []string {
	keys := []string{"blockage", "clear", "blocked", "death", "lifetime",
		"brownout", "period", "ackloss", "snr"}
	sort.Strings(keys)
	return keys
}
