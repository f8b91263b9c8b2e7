// Package antenna models the antennas used by the mmTag simulator:
// the microstrip patch element pattern and uniform linear
// arrays with electronic steering, as used by the access point for
// beam-swept tag discovery and space-division multiplexing.
//
// Angles are in radians measured from array broadside unless a name says
// degrees. Gains returned by Gain methods are linear power ratios
// (dimensionless); multiply into link budgets directly.
//
// DESIGN.md: section 3 (module inventory); these arrays implement the AP
// beam model of section 1.
package antenna

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Element is a single radiating element with an angular power pattern.
type Element interface {
	// Gain returns the element's linear power gain at angle theta
	// (radians from boresight/broadside).
	Gain(theta float64) float64
	// PeakGain returns the element's boresight linear power gain.
	PeakGain() float64
}

// Patch models a microstrip patch element with a cosine-power pattern:
//
//	G(theta) = G0 * cos(theta)^q   for |theta| < pi/2, else backlobe
//
// q controls the beamwidth; q ~= 2 with G0 ~= 3.2 (5 dBi) matches a
// typical mmWave patch.
type Patch struct {
	G0       float64 // boresight linear gain
	Q        float64 // cosine exponent
	Backlobe float64 // linear gain behind the ground plane
}

// NewPatch returns a typical 5 dBi mmWave patch element.
func NewPatch() Patch {
	return Patch{G0: math.Pow(10, 5.0/10), Q: 2, Backlobe: math.Pow(10, -15.0/10)}
}

// Gain returns the patch pattern at theta.
func (p Patch) Gain(theta float64) float64 {
	c := math.Cos(theta)
	if c <= 0 {
		return p.Backlobe
	}
	return p.G0 * math.Pow(c, p.Q)
}

// PeakGain returns the boresight gain.
func (p Patch) PeakGain() float64 { return p.G0 }

// ULA is a uniform linear array of identical elements with electronic
// phase steering, the model for the AP's phased array.
type ULA struct {
	element  Element
	n        int
	spacing  float64 // element spacing in wavelengths
	steerRad float64 // current steering angle, radians from broadside
}

// NewULA constructs an n-element uniform linear array with the given
// element pattern and spacing in wavelengths (0.5 = half-wave).
func NewULA(element Element, n int, spacingWavelengths float64) (*ULA, error) {
	if n < 1 {
		return nil, fmt.Errorf("antenna: ULA needs >= 1 element, got %d", n)
	}
	if spacingWavelengths <= 0 {
		return nil, fmt.Errorf("antenna: ULA spacing must be positive, got %g", spacingWavelengths)
	}
	return &ULA{element: element, n: n, spacing: spacingWavelengths}, nil
}

// N returns the element count.
func (u *ULA) N() int { return u.n }

// Steer points the main beam at angle rad from broadside.
func (u *ULA) Steer(rad float64) { u.steerRad = rad }

// Steering returns the current steering angle in radians.
func (u *ULA) Steering() float64 { return u.steerRad }

// ArrayFactor returns the complex array factor at observation angle theta
// for the current steering, normalized so that |AF| = n at the steered
// angle.
func (u *ULA) ArrayFactor(theta float64) complex128 {
	psi := 2 * math.Pi * u.spacing * (math.Sin(theta) - math.Sin(u.steerRad))
	var af complex128
	for k := 0; k < u.n; k++ {
		af += cmplx.Exp(complex(0, psi*float64(k)))
	}
	return af
}

// Gain returns the array's linear power gain at theta: element pattern
// times the normalized array factor power times the array directivity
// gain n.
func (u *ULA) Gain(theta float64) float64 {
	af := u.ArrayFactor(theta)
	afPow := (real(af)*real(af) + imag(af)*imag(af)) / float64(u.n*u.n)
	return u.element.Gain(theta) * afPow * float64(u.n)
}

// PeakGain returns the gain at the steered direction.
func (u *ULA) PeakGain() float64 { return u.Gain(u.steerRad) }

// HalfPowerBeamwidth returns the approximate -3 dB beamwidth (radians) of
// the broadside array: 0.886 * lambda / (N d).
func (u *ULA) HalfPowerBeamwidth() float64 {
	return 0.886 / (float64(u.n) * u.spacing)
}

// Beams returns a set of steering angles (radians) that tile the sector
// [-sectorRad, +sectorRad] with beams spaced by the half-power beamwidth,
// the natural codebook for beam-swept discovery.
func (u *ULA) Beams(sectorRad float64) []float64 {
	bw := u.HalfPowerBeamwidth()
	if bw <= 0 || sectorRad < 0 {
		return nil
	}
	if sectorRad == 0 {
		return []float64{0}
	}
	// Evenly spaced beams covering [-sector, +sector] with spacing <= one
	// beamwidth, endpoints included, so no angle is more than half a
	// beamwidth from its nearest beam.
	count := int(math.Ceil(2*sectorRad/bw)) + 1
	if count < 2 {
		count = 2
	}
	step := 2 * sectorRad / float64(count-1)
	beams := make([]float64, count)
	for i := range beams {
		beams[i] = -sectorRad + float64(i)*step
	}
	return beams
}

// Directivity returns the broadside directivity estimate N * element peak.
func (u *ULA) Directivity() float64 {
	return float64(u.n) * u.element.PeakGain()
}

// Deg converts degrees to radians.
func Deg(d float64) float64 { return d * math.Pi / 180 }
