// Package channel models the radio channel between the mmTag access point
// and its tags: path loss (free-space, log-distance), the monostatic
// backscatter link budget, wall echoes and self-interference, static
// clutter placement, small-scale fading, and the waveform-level
// impairments (AWGN, multipath taps) used by the high-fidelity
// simulations.
//
// The package has two faces that are kept consistent by tests: an
// analytic face (SNR from the link budget, used by the packet-level
// simulator) and a sample-level face (impairments applied to complex
// baseband waveforms).
//
// DESIGN.md: section 1 (link reconstruction), section 3 (module inventory)
// and section 6 (the two fidelity levels).
package channel

import (
	"fmt"
	"math"

	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

// PathLoss converts a distance into a linear power loss ratio (>= 1).
type PathLoss interface {
	// Loss returns the one-way path loss (linear, >= 1) at distance d
	// metres.
	Loss(d float64) float64
	// Name identifies the model in experiment output.
	Name() string
}

// FreeSpace is the Friis free-space model at a fixed carrier.
type FreeSpace struct {
	FreqHz float64
}

// Loss implements PathLoss.
func (f FreeSpace) Loss(d float64) float64 { return rfmath.FSPL(d, f.FreqHz) }

// Name implements PathLoss.
func (f FreeSpace) Name() string { return "free-space" }

// LogDistance is the log-distance model: free-space to a reference
// distance, then a configurable exponent. Indoor mmWave LOS measures
// n ~= 1.8-2.2; NLOS 2.5-4.
type LogDistance struct {
	FreqHz   float64
	RefM     float64 // reference distance, metres
	Exponent float64 // path-loss exponent beyond the reference
}

// NewLogDistance returns a log-distance model with a 1 m reference.
func NewLogDistance(freqHz, exponent float64) LogDistance {
	return LogDistance{FreqHz: freqHz, RefM: 1, Exponent: exponent}
}

// Loss implements PathLoss.
func (l LogDistance) Loss(d float64) float64 {
	if d <= l.RefM {
		return rfmath.FSPL(d, l.FreqHz)
	}
	ref := rfmath.FSPL(l.RefM, l.FreqHz)
	return ref * math.Pow(d/l.RefM, l.Exponent)
}

// Name implements PathLoss.
func (l LogDistance) Name() string { return fmt.Sprintf("log-distance-%.1f", l.Exponent) }

// Link is the monostatic backscatter link between the AP and one tag,
// combining geometry, antennas and the tag reflector into the uplink
// budget.
type Link struct {
	// FreqHz is the carrier frequency.
	FreqHz float64
	// TxPowerW is the AP transmit power in watts.
	TxPowerW float64
	// APGain is the AP antenna linear gain toward the tag (same antenna
	// for TX and RX in the monostatic budget).
	APGain float64
	// Reflector is the tag's retro-reflective structure.
	Reflector vanatta.Reflector
	// TagAngleRad is the incidence angle at the tag (radians from its
	// broadside).
	TagAngleRad float64
	// DistanceM is the AP-tag distance in metres.
	DistanceM float64
	// PathLoss is the one-way propagation model; free space if nil.
	PathLoss PathLoss
	// ModEfficiency is the mean reflected power fraction of the
	// modulation alphabet (StateSet.MeanReflectedPower), in (0, 1].
	ModEfficiency float64
	// NoiseFigureDB is the AP receiver noise figure.
	NoiseFigureDB float64
	// PolarizationLossDB and MiscLossDB absorb implementation losses.
	PolarizationLossDB float64
	MiscLossDB         float64
	// InterferenceW is co-channel interference power (watts) at the
	// receiver, added to thermal noise in the SINR computation. A
	// neighbouring AP's carrier arrives at an uncorrelated frequency
	// offset, so it cannot be removed by the reader's DC/offset
	// estimation and degrades the link like noise.
	InterferenceW float64
	// Obs, when non-nil, meters SNR evaluations (see LinkObs).
	Obs *LinkObs
}

// Validate reports configuration errors.
func (l *Link) Validate() error {
	switch {
	case l.FreqHz <= 0:
		return fmt.Errorf("channel: frequency must be positive, got %g", l.FreqHz)
	case l.TxPowerW <= 0:
		return fmt.Errorf("channel: TX power must be positive, got %g", l.TxPowerW)
	case l.APGain <= 0:
		return fmt.Errorf("channel: AP gain must be positive, got %g", l.APGain)
	case l.Reflector == nil:
		return fmt.Errorf("channel: reflector is required")
	case l.DistanceM <= 0:
		return fmt.Errorf("channel: distance must be positive, got %g", l.DistanceM)
	case l.ModEfficiency <= 0 || l.ModEfficiency > 1:
		return fmt.Errorf("channel: modulation efficiency must be in (0,1], got %g", l.ModEfficiency)
	}
	return nil
}

func (l *Link) pathLoss() PathLoss {
	if l.PathLoss != nil {
		return l.PathLoss
	}
	return FreeSpace{FreqHz: l.FreqHz}
}

func (l *Link) implementationLoss() float64 {
	return rfmath.FromDB(-(l.PolarizationLossDB + l.MiscLossDB))
}

// ReceivedPowerW returns the tag's modulated echo power at the AP
// receiver in watts.
func (l *Link) ReceivedPowerW() (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	oneWay := l.pathLoss().Loss(l.DistanceM)
	tagGain := l.Reflector.MonostaticGain(l.TagAngleRad)
	pr := l.TxPowerW * l.APGain * l.APGain * tagGain * tagGain * l.ModEfficiency /
		(oneWay * oneWay) * l.implementationLoss()
	return pr, nil
}

// TagIncidentPowerW returns the power illuminating the tag (one-way),
// which drives the tag-side envelope detector and energy harvest budgets.
func (l *Link) TagIncidentPowerW() (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	oneWay := l.pathLoss().Loss(l.DistanceM)
	tagGain := l.Reflector.MonostaticGain(l.TagAngleRad)
	return l.TxPowerW * l.APGain * tagGain / oneWay * l.implementationLoss(), nil
}

// SNR returns the linear uplink SINR at the AP in the given noise
// bandwidth (Hz): signal over thermal noise plus any configured
// co-channel interference.
func (l *Link) SNR(bandwidthHz float64) (float64, error) {
	if bandwidthHz <= 0 {
		return 0, fmt.Errorf("channel: bandwidth must be positive, got %g", bandwidthHz)
	}
	if l.InterferenceW < 0 {
		return 0, fmt.Errorf("channel: interference power must be >= 0, got %g", l.InterferenceW)
	}
	pr, err := l.ReceivedPowerW()
	if err != nil {
		return 0, err
	}
	noise := rfmath.ThermalNoisePower(rfmath.RoomTemperatureK, bandwidthHz) *
		rfmath.FromDB(l.NoiseFigureDB)
	snr := pr / (noise + l.InterferenceW)
	l.Obs.Observe(snr)
	return snr, nil
}

// SNRdB returns SNR in decibels.
func (l *Link) SNRdB(bandwidthHz float64) (float64, error) {
	snr, err := l.SNR(bandwidthHz)
	if err != nil {
		return 0, err
	}
	return rfmath.DB(snr), nil
}

// EbN0 returns the linear Eb/N0 for a given bit rate, assuming matched
// filtering (noise bandwidth equal to the symbol rate maps through
// bits/symbol; here we use the standard Eb/N0 = SNR * B / Rb with B the
// noise bandwidth).
func (l *Link) EbN0(bitRate, bandwidthHz float64) (float64, error) {
	snr, err := l.SNR(bandwidthHz)
	if err != nil {
		return 0, err
	}
	if bitRate <= 0 {
		return 0, fmt.Errorf("channel: bit rate must be positive, got %g", bitRate)
	}
	return rfmath.EbN0FromSNR(snr, bitRate, bandwidthHz), nil
}

// Clutter is a static environment reflector (wall, desk) that returns an
// unmodulated copy of the AP's signal.
type Clutter struct {
	// RCS is the radar cross-section in m^2 (a wall section can be 1-10).
	RCS float64
	// DistanceM is its range from the AP.
	DistanceM float64
}

// WallEchoPowerW returns the monostatic echo power from a large flat
// wall at perpendicular distance d, using the image-source model: the
// reflection behaves like a one-way Friis link to the AP's mirror image
// at distance 2d, attenuated by the wall's reflection loss. Unlike the
// point-target radar equation, this stays physical in the near field
// (a wall right behind the AP reflects at most the full beam power).
func WallEchoPowerW(txPowerW, apGain, freqHz, d, reflLossDB float64) float64 {
	if d <= 0 {
		panic("channel: wall distance must be positive")
	}
	return txPowerW * apGain * apGain / rfmath.FSPL(2*d, freqHz) *
		rfmath.FromDB(-reflLossDB)
}

// SelfInterferencePowerW returns the TX-to-RX leakage power at the AP
// for a given isolation (dB, positive). Monostatic backscatter readers
// live or die by this number plus their cancellation stage.
func SelfInterferencePowerW(txPowerW, isolationDB float64) float64 {
	return txPowerW * rfmath.FromDB(-isolationDB)
}
