// Package ap models the mmTag access point: the transmitter that
// illuminates tags with a continuous-wave query, and the monostatic
// receiver that must dig the tag's weak modulated retro-reflection out
// from under its own transmit leakage and the environment's static
// clutter.
//
// The receive pipeline mirrors a real backscatter reader:
//
//	analog self-interference cancellation (bounded depth)
//	→ ADC quantization (bounded dynamic range)
//	→ symbol matched filter (integrate and dump)
//	→ preamble search (normalized correlation)
//	→ joint gain/offset estimation from the known preamble
//	→ symbol slicing → frame decode
//
// Because AP and tag share one oscillator path (the tag is passive), the
// uplink baseband has no CFO: the static leakage and clutter terms land
// exactly at DC, which is what makes the offset-estimation approach of
// the reader work.
//
// DESIGN.md: section 1 (system reconstruction, AP side) and section 3
// (module inventory).
package ap

import (
	"fmt"
	"math"

	"mmtag/internal/antenna"
	"mmtag/internal/channel"
	"mmtag/internal/dsp"
	"mmtag/internal/rfmath"
)

// Config parameterizes an access point.
type Config struct {
	// FreqHz is the carrier frequency (24 GHz ISM by default).
	FreqHz float64
	// TxPowerW is the transmit power in watts (20 dBm default).
	TxPowerW float64
	// ArrayElements sizes the AP's phased array (16 default).
	ArrayElements int
	// NoiseFigureDB is the receiver noise figure (5 dB default).
	NoiseFigureDB float64
	// IsolationDB is the passive TX-to-RX isolation (30 dB default).
	IsolationDB float64
	// CancellationDB is the additional analog self-interference
	// cancellation depth (40 dB default).
	CancellationDB float64
	// ADCBits is the converter resolution (12 default).
	ADCBits int
}

// DefaultConfig returns the reconstructed testbed AP.
func DefaultConfig() Config {
	return Config{
		FreqHz:         24e9,
		TxPowerW:       rfmath.FromDBm(20),
		ArrayElements:  16,
		NoiseFigureDB:  5,
		IsolationDB:    30,
		CancellationDB: 40,
		ADCBits:        12,
	}
}

// AP is an access point instance with a steerable array.
type AP struct {
	cfg   Config
	array *antenna.ULA
}

// New constructs an AP, applying defaults for zero fields.
func New(cfg Config) (*AP, error) {
	d := DefaultConfig()
	if cfg.FreqHz == 0 {
		cfg.FreqHz = d.FreqHz
	}
	if cfg.TxPowerW == 0 {
		cfg.TxPowerW = d.TxPowerW
	}
	if cfg.ArrayElements == 0 {
		cfg.ArrayElements = d.ArrayElements
	}
	if cfg.NoiseFigureDB == 0 {
		cfg.NoiseFigureDB = d.NoiseFigureDB
	}
	if cfg.IsolationDB == 0 {
		cfg.IsolationDB = d.IsolationDB
	}
	if cfg.CancellationDB == 0 {
		cfg.CancellationDB = d.CancellationDB
	}
	if cfg.ADCBits == 0 {
		cfg.ADCBits = d.ADCBits
	}
	switch {
	case cfg.FreqHz <= 0 || cfg.TxPowerW <= 0:
		return nil, fmt.Errorf("ap: frequency and TX power must be positive")
	case cfg.ArrayElements < 1:
		return nil, fmt.Errorf("ap: array needs >= 1 element")
	case cfg.ADCBits < 2 || cfg.ADCBits > 24:
		return nil, fmt.Errorf("ap: ADC bits must be in [2,24], got %d", cfg.ADCBits)
	case cfg.IsolationDB < 0 || cfg.CancellationDB < 0:
		return nil, fmt.Errorf("ap: isolation and cancellation must be >= 0 dB")
	}
	arr, err := antenna.NewULA(antenna.NewPatch(), cfg.ArrayElements, 0.5)
	if err != nil {
		return nil, err
	}
	return &AP{cfg: cfg, array: arr}, nil
}

// Config returns the AP's resolved configuration.
func (a *AP) Config() Config { return a.cfg }

// Array returns the AP's steerable array.
func (a *AP) Array() *antenna.ULA { return a.array }

// Steer points the AP beam (radians from broadside).
func (a *AP) Steer(rad float64) { a.array.Steer(rad) }

// GainToward returns the AP's current linear gain toward angle rad.
func (a *AP) GainToward(rad float64) float64 { return a.array.Gain(rad) }

// Beams returns the discovery beam codebook covering ±sector radians.
func (a *AP) Beams(sectorRad float64) []float64 { return a.array.Beams(sectorRad) }

// NoisePowerW returns the receiver noise power in the given bandwidth.
func (a *AP) NoisePowerW(bandwidthHz float64) float64 {
	return rfmath.ThermalNoisePower(rfmath.RoomTemperatureK, bandwidthHz) *
		rfmath.FromDB(a.cfg.NoiseFigureDB)
}

// ResidualSelfInterferenceW returns the self-interference power that
// survives isolation plus analog cancellation.
func (a *AP) ResidualSelfInterferenceW() float64 {
	return channel.SelfInterferencePowerW(a.cfg.TxPowerW, a.cfg.IsolationDB+a.cfg.CancellationDB)
}

// UplinkBudget assembles the channel.Link for a tag seen at angleRad
// (from the AP's current beam) and tagAngleRad (incidence at the tag),
// at distance d, with the given modulation efficiency.
func (a *AP) UplinkBudget(refl channelReflector, d, angleRad, tagAngleRad, modEfficiency float64) *channel.Link {
	return &channel.Link{
		FreqHz:        a.cfg.FreqHz,
		TxPowerW:      a.cfg.TxPowerW,
		APGain:        a.GainToward(angleRad),
		Reflector:     refl,
		TagAngleRad:   tagAngleRad,
		DistanceM:     d,
		ModEfficiency: modEfficiency,
		NoiseFigureDB: a.cfg.NoiseFigureDB,
	}
}

// channelReflector matches vanatta.Reflector without importing it here,
// keeping the dependency direction ap -> channel -> vanatta.
type channelReflector interface {
	MonostaticGain(theta float64) float64
	Name() string
}

// DynamicRangeDB returns the ADC's nominal dynamic range (6.02 dB/bit).
func (a *AP) DynamicRangeDB() float64 { return 6.02 * float64(a.cfg.ADCBits) }

// MinDetectableRatioDB returns how far below the residual
// self-interference a tag signal can sit and still clear the ADC's
// quantization floor, the quantity experiment E9 sweeps.
func (a *AP) MinDetectableRatioDB() float64 {
	// The ADC full scale must accommodate the residual SI; the
	// quantization floor sits DynamicRange below that.
	return a.DynamicRangeDB()
}

// QuantizeTo models the ADC: it clips x to fullScale amplitude per I/Q
// rail and rounds to the configured bit depth, writing into dst (grown
// only when its capacity is short). dst may alias x for in-place
// quantization.
func (a *AP) QuantizeTo(dst, x []complex128, fullScale float64) []complex128 {
	if fullScale <= 0 {
		panic("ap: ADC full scale must be positive")
	}
	levels := math.Pow(2, float64(a.cfg.ADCBits-1)) // per signed rail
	out := dsp.GrowComplex(dst, len(x))
	q := func(v float64) float64 {
		if v > fullScale {
			v = fullScale
		} else if v < -fullScale {
			v = -fullScale
		}
		return math.Round(v/fullScale*levels) / levels * fullScale
	}
	for i, v := range x {
		out[i] = complex(q(real(v)), q(imag(v)))
	}
	return out
}
