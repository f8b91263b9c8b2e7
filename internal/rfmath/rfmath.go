// Package rfmath provides the radio-frequency arithmetic used throughout
// the mmTag simulator: decibel conversions, thermal-noise computation,
// free-space path loss, and the Gaussian tail functions needed for
// closed-form bit-error-rate and packet-error-rate expressions.
//
// All functions are pure and allocation-free; power quantities are watts
// unless the name says otherwise (dB, dBm, dBi).
//
// DESIGN.md: section 3 (module inventory); the analytic face of section 6's
// packet level.
package rfmath

import "math"

// Physical constants.
const (
	// SpeedOfLight is the propagation speed of radio waves in vacuum, m/s.
	SpeedOfLight = 299_792_458.0
	// Boltzmann is the Boltzmann constant, J/K.
	Boltzmann = 1.380_649e-23
	// RoomTemperatureK is the reference temperature for thermal noise, kelvin.
	RoomTemperatureK = 290.0
)

// DB converts a linear power ratio to decibels.
// DB(0) returns -Inf, matching the mathematical limit.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 { return 10*math.Log10(watts) + 30 }

// FromDBm converts dBm to watts.
func FromDBm(dbm float64) float64 { return math.Pow(10, (dbm-30)/10) }

// Wavelength returns the free-space wavelength in metres for a carrier
// frequency in hertz.
func Wavelength(freqHz float64) float64 { return SpeedOfLight / freqHz }

// ThermalNoisePower returns kTB thermal noise power in watts for the given
// temperature (kelvin) and bandwidth (hertz).
func ThermalNoisePower(tempK, bandwidthHz float64) float64 {
	return Boltzmann * tempK * bandwidthHz
}

// NoiseFloorDBm returns the receiver noise floor in dBm for a bandwidth in
// hertz and a noise figure in dB, at room temperature. This is the familiar
// "-174 dBm/Hz + 10log10(B) + NF" expression.
func NoiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return DBm(ThermalNoisePower(RoomTemperatureK, bandwidthHz)) + noiseFigureDB
}

// FSPL returns the free-space path loss as a linear power ratio (>= 1)
// for distance d metres at frequency freqHz. It panics if d or freqHz is
// not positive, as that indicates a programming error in the caller.
func FSPL(d, freqHz float64) float64 {
	if d <= 0 || freqHz <= 0 {
		panic("rfmath: FSPL requires positive distance and frequency")
	}
	x := 4 * math.Pi * d / Wavelength(freqHz)
	return x * x
}

// Q is the Gaussian tail probability Q(x) = P(N(0,1) > x).
func Q(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// EbN0FromSNR converts an SNR measured in the signal bandwidth to Eb/N0,
// given the data rate (bits/s) and noise bandwidth (Hz). All linear.
func EbN0FromSNR(snr, bitRate, bandwidthHz float64) float64 {
	return snr * bandwidthHz / bitRate
}

// Closed-form bit error rates for coherent detection on an AWGN channel.
// Arguments are linear Eb/N0.

// BERBPSK returns the BPSK (and QPSK-per-bit) bit error rate.
func BERBPSK(ebn0 float64) float64 { return Q(math.Sqrt(2 * ebn0)) }

// BERQPSK returns the QPSK bit error rate with Gray mapping, identical to
// BPSK per bit.
func BERQPSK(ebn0 float64) float64 { return BERBPSK(ebn0) }

// BEROOK returns the on-off-keying bit error rate with coherent detection
// and an optimal threshold: Q(sqrt(Eb/N0)).
func BEROOK(ebn0 float64) float64 { return Q(math.Sqrt(ebn0)) }

// BERMQAM returns the approximate Gray-coded square M-QAM bit error rate.
// M must be a power of 4 (4, 16, 64, ...); BERMQAM(4, x) equals QPSK.
func BERMQAM(m int, ebn0 float64) float64 {
	if m < 4 || (m&(m-1)) != 0 {
		panic("rfmath: BERMQAM requires M a power of two >= 4")
	}
	k := math.Log2(float64(m))
	arg := math.Sqrt(3 * k * ebn0 / (float64(m) - 1))
	return 4 / k * (1 - 1/math.Sqrt(float64(m))) * Q(arg)
}

// BERMPSK returns the approximate Gray-coded M-PSK bit error rate for M >= 4.
func BERMPSK(m int, ebn0 float64) float64 {
	if m < 2 {
		panic("rfmath: BERMPSK requires M >= 2")
	}
	if m == 2 {
		return BERBPSK(ebn0)
	}
	k := math.Log2(float64(m))
	return 2 / k * Q(math.Sqrt(2*k*ebn0)*math.Sin(math.Pi/float64(m)))
}

// PERFromBER returns the packet error rate for a packet of n bits with
// independent bit errors at rate ber.
func PERFromBER(ber float64, n int) float64 {
	if n <= 0 {
		return 0
	}
	// 1 - (1-ber)^n computed stably for tiny ber.
	return -math.Expm1(float64(n) * math.Log1p(-ber))
}
