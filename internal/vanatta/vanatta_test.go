package vanatta

import (
	"math"
	"testing"
	"testing/quick"

	"mmtag/internal/antenna"
)

// iso is an ideal 0 dBi element.
type iso struct{}

func (iso) Gain(float64) float64 { return 1 }
func (iso) PeakGain() float64    { return 1 }

// toDeg converts radians to degrees.
func toDeg(r float64) float64 { return r * 180 / math.Pi }

func mustArray(t *testing.T, n int) *Array {
	t.Helper()
	a, err := New(Config{Elements: n})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Elements: 0},
		{Elements: 3},                      // odd
		{Elements: 8, InsertionLossDB: -1}, // negative loss
		{Elements: 8, SpacingWavelengths: -0.5},
	}
	for _, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("config %+v must error", c)
		}
	}
	if _, err := New(Config{Elements: 8}); err != nil {
		t.Fatalf("valid config errored: %v", err)
	}
}

func TestRetroReflectionIsAngleFlat(t *testing.T) {
	// The defining Van Atta property: monostatic array factor stays fully
	// coherent at every angle, so gain varies only with the element
	// pattern — nearly flat over ±50°, unlike any static reflector.
	a, err := New(Config{Elements: 8, Element: iso{}})
	if err != nil {
		t.Fatal(err)
	}
	g0 := a.MonostaticGain(0)
	for th := -1.0; th <= 1.0; th += 0.05 {
		g := a.MonostaticGain(th)
		if math.Abs(g-g0) > 1e-9 {
			t.Fatalf("isotropic-element retro gain varies with angle: %g at %g vs %g", g, th, g0)
		}
	}
}

func TestRetroGainScalesWithN(t *testing.T) {
	// Per-pass gain grows linearly with N (echo power as N^2).
	a4 := mustArray(t, 4)
	a8 := mustArray(t, 8)
	a16 := mustArray(t, 16)
	r1 := a8.MonostaticGain(0) / a4.MonostaticGain(0)
	r2 := a16.MonostaticGain(0) / a8.MonostaticGain(0)
	if math.Abs(r1-2) > 1e-9 || math.Abs(r2-2) > 1e-9 {
		t.Fatalf("gain ratios %g, %g, want 2, 2", r1, r2)
	}
}

func TestInsertionLossHalvesPerPass(t *testing.T) {
	ideal, _ := New(Config{Elements: 8, InsertionLossDB: 0})
	lossy, _ := New(Config{Elements: 8, InsertionLossDB: 3})
	// Per-pass gain carries sqrt of the loss so the two-pass budget sees
	// the full 3 dB.
	ratio := 10 * math.Log10(ideal.MonostaticGain(0)/lossy.MonostaticGain(0))
	if math.Abs(ratio-1.5) > 1e-9 {
		t.Fatalf("per-pass loss %g dB, want 1.5", ratio)
	}
}

func TestBistaticAFPeaksAtRetroDirection(t *testing.T) {
	a := mustArray(t, 8)
	in := antenna.Deg(25)
	// At the retro direction the array factor is fully coherent: |AF| = 1.
	afPeak := a.BistaticAF(in, in)
	if m := math.Hypot(real(afPeak), imag(afPeak)); math.Abs(m-1) > 1e-9 {
		t.Fatalf("retro-direction |AF| = %g, want 1", m)
	}
	// Any other observation angle gets less.
	for th := -1.2; th <= 1.2; th += 0.01 {
		if math.Abs(th-in) < 0.05 {
			continue
		}
		af := a.BistaticAF(in, th)
		if m := math.Hypot(real(af), imag(af)); m > 0.95 {
			t.Fatalf("bistatic |AF| %g at %g rivals retro direction", m, th)
		}
	}
}

func TestBistaticReciprocity(t *testing.T) {
	a := mustArray(t, 8)
	f := func(x, y float64) bool {
		in := math.Mod(x, 1.0)
		out := math.Mod(y, 1.0)
		g1 := a.BistaticGain(in, out)
		g2 := a.BistaticGain(out, in)
		return math.Abs(g1-g2) < 1e-9*(g1+g2+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldOfViewPatchElements(t *testing.T) {
	// With cos^2 patch elements the per-pass 3 dB field of view is at
	// cos^2 θ = 0.5 → θ = 45°.
	a := mustArray(t, 8)
	fov := toDeg(a.FieldOfView())
	if fov < 43 || fov > 47 {
		t.Fatalf("field of view %g°, want ~45°", fov)
	}
}

func TestFlatPlateCollapsesOffBroadside(t *testing.T) {
	a, _ := New(Config{Elements: 8, Element: iso{}})
	p, err := NewFlatPlate(iso{}, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Equal at broadside.
	if math.Abs(a.MonostaticGain(0)-p.MonostaticGain(0)) > 1e-9 {
		t.Fatal("van atta and flat plate must match at broadside")
	}
	// At 20° the flat plate is down by >10 dB while the Van Atta holds.
	th := antenna.Deg(20)
	vaDrop := 10 * math.Log10(a.MonostaticGain(0)/a.MonostaticGain(th))
	fpDrop := 10 * math.Log10(p.MonostaticGain(0)/p.MonostaticGain(th))
	if vaDrop > 0.5 {
		t.Fatalf("van atta dropped %g dB at 20°", vaDrop)
	}
	if fpDrop < 10 {
		t.Fatalf("flat plate only dropped %g dB at 20°", fpDrop)
	}
}

func TestFlatPlateValidation(t *testing.T) {
	if _, err := NewFlatPlate(nil, 0, 0.5); err == nil {
		t.Fatal("zero elements must error")
	}
	if _, err := NewFlatPlate(nil, 4, 0); err == nil {
		t.Fatal("zero spacing must error")
	}
	p, err := NewFlatPlate(nil, 4, 0.5)
	if err != nil || p.Name() != "flat-plate-4" {
		t.Fatalf("default element construction failed: %v", err)
	}
}

func TestSingleAntennaBaseline(t *testing.T) {
	s := NewSingleAntenna(iso{})
	if s.MonostaticGain(0.7) != 1 {
		t.Fatal("isotropic single antenna gain must be 1")
	}
	if NewSingleAntenna(nil).MonostaticGain(0) <= 1 {
		t.Fatal("default patch element must have gain > 1 at boresight")
	}
	if s.Name() != "single-antenna" {
		t.Fatal("name")
	}
}

func TestRCSConsistency(t *testing.T) {
	a := mustArray(t, 8)
	lambda := 0.0125 // ~24 GHz
	g := a.MonostaticGain(0)
	want := g * g * lambda * lambda / (4 * math.Pi)
	if rcs := a.RCS(0, lambda); math.Abs(rcs-want) > 1e-15 {
		t.Fatalf("RCS %g, want %g", rcs, want)
	}
}

func TestReflectorInterfaceSatisfied(t *testing.T) {
	var _ Reflector = mustArray(t, 4)
	fp, _ := NewFlatPlate(nil, 4, 0.5)
	var _ Reflector = fp
	var _ Reflector = NewSingleAntenna(nil)
	if mustArray(t, 4).Name() != "van-atta-4" {
		t.Fatal("array name")
	}
}
