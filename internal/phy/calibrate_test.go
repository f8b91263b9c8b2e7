package phy

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

// Cross-tier calibration, phy leg: MeasureBER pinned to the closed-form
// AWGN curves over the full E3 grid (every modulation x Eb/N0 in
// {2,4,6,8,10} dB) with explicit confidence bounds. Tolerance policy
// matches internal/link's calibration suite:
//
//   - Informative points (>= 20 expected errors at the chosen sample
//     size): one-sample z statistic against the closed form must stay
//     under 4.5 sigma (per-point false alarm ~7e-6 with fixed seeds).
//   - Deep-tail points: measured rate must stay under the closed-form
//     expectation plus ~6 Poisson sigmas plus a small count floor.
//
// The helpers are local because phy sits below internal/link in the
// dependency order.

const (
	calibZThreshold  = 4.5
	calibInformative = 20
)

func calibBits(want float64) int {
	n := 60000
	if want > 0 {
		if m := int(math.Ceil(60 / want)); m > n {
			n = m
		}
	}
	if n > 300000 {
		n = 300000
	}
	return n
}

func calibZ(k, n int, p float64) float64 {
	if n == 0 || p <= 0 || p >= 1 {
		if float64(k)/float64(n) == p {
			return 0
		}
		return math.Inf(1)
	}
	se := math.Sqrt(p * (1 - p) / float64(n))
	return math.Abs(float64(k)/float64(n)-p) / se
}

func calibTailBound(want float64, nBits int) float64 {
	lam := want * float64(nBits)
	return (lam + 6*math.Sqrt(lam) + 5) / float64(nBits)
}

func calibCurves(t *testing.T) []struct {
	name   string
	c      *Constellation
	theory func(float64) float64
} {
	t.Helper()
	qam16, err := NewConstellation("16qam", vanatta.QAM16().States())
	if err != nil {
		t.Fatal(err)
	}
	psk8, err := NewConstellation("8psk", vanatta.PSK8().States())
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		c      *Constellation
		theory func(float64) float64
	}{
		{"ook", newOOK(), rfmath.BEROOK},
		{"bpsk", newBPSK(), rfmath.BERBPSK},
		{"qpsk", NewQPSK(), rfmath.BERQPSK},
		{"8psk", psk8, func(e float64) float64 { return rfmath.BERMPSK(8, e) }},
		{"16qam", qam16, func(e float64) float64 { return rfmath.BERMQAM(16, e) }},
	}
}

func TestCalibrationAgainstClosedForm(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo calibration sweep")
	}
	rng := rand.New(rand.NewSource(1705))
	for _, cv := range calibCurves(t) {
		t.Run(cv.name, func(t *testing.T) {
			for _, ebn0DB := range []float64{2, 4, 6, 8, 10} {
				ebn0 := rfmath.FromDB(ebn0DB)
				want := cv.theory(ebn0)
				nBits := calibBits(want)
				res, err := MeasureBER(cv.c, ebn0, nBits, rng)
				if err != nil {
					t.Fatalf("%g dB: %v", ebn0DB, err)
				}
				if want*float64(nBits) >= calibInformative {
					if z := calibZ(res.Errors, res.Bits, want); z > calibZThreshold {
						t.Errorf("%g dB: measured %g vs closed form %g: z=%.1f > %.1f",
							ebn0DB, res.Rate(), want, z, calibZThreshold)
					}
					continue
				}
				if bound := calibTailBound(want, nBits); res.Rate() > bound {
					t.Errorf("%g dB: deep-tail rate %g exceeds bound %g",
						ebn0DB, res.Rate(), bound)
				}
			}
		})
	}
}

// TestCalibrationCatchesSkewedModel is the negative control: judging an
// honest measurement against a model curve shifted optimistic by 1 dB
// must trip the same statistic the grid sweep uses, proving the
// tolerance has teeth.
func TestCalibrationCatchesSkewedModel(t *testing.T) {
	ebn0 := rfmath.FromDB(4)
	honest := rfmath.BERQPSK(ebn0)
	skewed := rfmath.BERQPSK(ebn0 * rfmath.FromDB(1))
	nBits := calibBits(honest)
	if honest*float64(nBits) < calibInformative {
		t.Fatal("chosen point is not informative — pick another")
	}
	res, err := MeasureBER(NewQPSK(), ebn0, nBits, rand.New(rand.NewSource(1706)))
	if err != nil {
		t.Fatal(err)
	}
	if z := calibZ(res.Errors, res.Bits, skewed); z <= calibZThreshold {
		t.Fatalf("skewed model escaped calibration: z=%.1f <= %.1f (measured %g vs skewed %g)",
			z, calibZThreshold, res.Rate(), skewed)
	}
	if z := calibZ(res.Errors, res.Bits, honest); z > calibZThreshold {
		t.Fatalf("honest model failed calibration: z=%.1f (measured %g vs %g)",
			z, res.Rate(), honest)
	}
}
