package antenna

import (
	"math"
	"testing"
	"testing/quick"
)

// iso is an ideal 0 dBi element.
type iso struct{}

func (iso) Gain(float64) float64 { return 1 }
func (iso) PeakGain() float64    { return 1 }

// toDeg converts radians to degrees.
func toDeg(r float64) float64 { return r * 180 / math.Pi }

func TestPatchPattern(t *testing.T) {
	p := NewPatch()
	// Boresight gain ~5 dBi.
	if g := 10 * math.Log10(p.Gain(0)); math.Abs(g-5) > 0.01 {
		t.Fatalf("patch boresight %g dBi", g)
	}
	// Monotone decreasing over [0, pi/2).
	prev := p.Gain(0)
	for th := 0.1; th < math.Pi/2; th += 0.1 {
		g := p.Gain(th)
		if g > prev {
			t.Fatalf("patch gain not monotone at %g", th)
		}
		prev = g
	}
	// Behind the ground plane: backlobe level.
	if g := p.Gain(math.Pi * 0.75); g != p.Backlobe {
		t.Fatalf("backlobe gain %g", g)
	}
	// Symmetric.
	if math.Abs(p.Gain(0.7)-p.Gain(-0.7)) > 1e-12 {
		t.Fatal("patch pattern must be symmetric")
	}
}

func TestULAErrors(t *testing.T) {
	if _, err := NewULA(iso{}, 0, 0.5); err == nil {
		t.Fatal("zero elements must error")
	}
	if _, err := NewULA(iso{}, 8, 0); err == nil {
		t.Fatal("zero spacing must error")
	}
}

func TestULABroadsideGain(t *testing.T) {
	u, err := NewULA(iso{}, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Peak gain at broadside = N for isotropic elements (9 dB for N=8).
	if g := u.Gain(0); math.Abs(g-8) > 1e-9 {
		t.Fatalf("broadside gain %g, want 8", g)
	}
	// Array factor magnitude at the steered angle is N.
	if m := math.Hypot(real(u.ArrayFactor(0)), imag(u.ArrayFactor(0))); math.Abs(m-8) > 1e-9 {
		t.Fatalf("AF magnitude %g, want 8", m)
	}
}

func TestULASteering(t *testing.T) {
	u, _ := NewULA(iso{}, 16, 0.5)
	target := Deg(25)
	u.Steer(target)
	if u.Steering() != target {
		t.Fatal("Steering() must report the set angle")
	}
	// Peak moves to the steered angle.
	if g := u.Gain(target); math.Abs(g-16) > 1e-9 {
		t.Fatalf("steered gain %g, want 16", g)
	}
	// Gain well off the beam is much lower.
	if g := u.Gain(Deg(-25)); g > 2 {
		t.Fatalf("off-beam gain %g too high", g)
	}
}

func TestULASteeredPeakProperty(t *testing.T) {
	u, _ := NewULA(iso{}, 12, 0.5)
	f := func(angleRaw float64) bool {
		a := math.Mod(angleRaw, 1.0) // within +-57 degrees
		u.Steer(a)
		peak := u.Gain(a)
		// No observation angle in the sector may exceed the steered gain.
		for th := -1.0; th <= 1.0; th += 0.01 {
			if u.Gain(th) > peak+1e-9 {
				return false
			}
		}
		return math.Abs(peak-12) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestULABeamwidthShrinksWithN(t *testing.T) {
	u8, _ := NewULA(iso{}, 8, 0.5)
	u32, _ := NewULA(iso{}, 32, 0.5)
	if u32.HalfPowerBeamwidth() >= u8.HalfPowerBeamwidth() {
		t.Fatal("beamwidth must shrink with element count")
	}
	// N=8, d=0.5: HPBW = 0.886/4 rad ~= 12.7 degrees.
	if bw := toDeg(u8.HalfPowerBeamwidth()); math.Abs(bw-12.69) > 0.1 {
		t.Fatalf("HPBW %g deg, want ~12.7", bw)
	}
}

func TestULAHalfPowerPoint(t *testing.T) {
	// The pattern should actually be ~3 dB down at half the HPBW.
	u, _ := NewULA(iso{}, 16, 0.5)
	peak := u.Gain(0)
	edge := u.Gain(u.HalfPowerBeamwidth() / 2)
	drop := 10 * math.Log10(peak/edge)
	if drop < 2 || drop > 4 {
		t.Fatalf("drop at HPBW/2 = %g dB, want ~3", drop)
	}
}

func TestULABeamsTileSector(t *testing.T) {
	u, _ := NewULA(iso{}, 16, 0.5)
	sector := Deg(60)
	beams := u.Beams(sector)
	if len(beams) == 0 {
		t.Fatal("no beams")
	}
	if beams[0] != -sector || math.Abs(beams[len(beams)-1]-sector) > 1e-12 {
		t.Fatalf("beams must span the sector: first %g last %g", beams[0], beams[len(beams)-1])
	}
	// Uniform spacing, never wider than one beamwidth.
	bw := u.HalfPowerBeamwidth()
	step := beams[1] - beams[0]
	if step > bw+1e-12 {
		t.Fatalf("beam spacing %g exceeds HPBW %g", step, bw)
	}
	for i := 1; i < len(beams); i++ {
		if math.Abs(beams[i]-beams[i-1]-step) > 1e-9 {
			t.Fatal("beam spacing must be uniform")
		}
	}
	// Every angle in the sector is within half a beamwidth of some beam,
	// i.e. scan loss is bounded.
	for th := -sector; th <= sector; th += 0.01 {
		nearest := math.Inf(1)
		for _, b := range beams {
			if d := math.Abs(th - b); d < nearest {
				nearest = d
			}
		}
		if nearest > bw/2+1e-9 {
			t.Fatalf("angle %g not covered (nearest beam %g rad away)", th, nearest)
		}
	}
}

func TestDirectivity(t *testing.T) {
	u, _ := NewULA(NewPatch(), 8, 0.5)
	want := 8 * NewPatch().PeakGain()
	if d := u.Directivity(); math.Abs(d-want) > 1e-9 {
		t.Fatalf("directivity %g, want %g", d, want)
	}
}

func TestDegConversions(t *testing.T) {
	if math.Abs(Deg(180)-math.Pi) > 1e-12 {
		t.Fatal("Deg(180) != pi")
	}
	f := func(x float64) bool {
		d := math.Mod(x, 360)
		return math.Abs(toDeg(Deg(d))-d) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
