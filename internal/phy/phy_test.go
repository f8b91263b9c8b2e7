package phy

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"mmtag/internal/vanatta"
)

// newBPSK returns {+1, -1} labelled 0, 1.
func newBPSK() *Constellation {
	c, _ := NewConstellation("bpsk", []complex128{1, -1})
	return c
}

// newOOK returns {0, 1}.
func newOOK() *Constellation {
	c, _ := NewConstellation("ook", []complex128{0, 1})
	return c
}

// bitErrors counts positions where a and b differ, treating any nonzero
// byte as a 1. Slices must have equal length.
func bitErrors(a, b []byte) (int, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("bit slice length mismatch (%d vs %d)", len(a), len(b))
	}
	n := 0
	for i := range a {
		if (a[i] != 0) != (b[i] != 0) {
			n++
		}
	}
	return n, nil
}

func TestNewConstellationValidation(t *testing.T) {
	if _, err := NewConstellation("x", []complex128{1}); err == nil {
		t.Fatal("size 1 must error")
	}
	if _, err := NewConstellation("x", []complex128{1, 2, 3}); err == nil {
		t.Fatal("non-power-of-two must error")
	}
	c, err := NewConstellation("x", []complex128{1, -1})
	if err != nil || c.BitsPerSymbol() != 1 || c.Size() != 2 {
		t.Fatalf("valid constellation rejected: %v", err)
	}
}

func TestConstellationCopiesPoints(t *testing.T) {
	pts := []complex128{1, -1}
	c, _ := NewConstellation("x", pts)
	pts[0] = 99
	if c.Point(0) == 99 {
		t.Fatal("points must be copied in")
	}
	out := c.Points()
	out[1] = 99
	if c.Point(1) == 99 {
		t.Fatal("Points must return a copy")
	}
}

func TestBitsPerSymbol(t *testing.T) {
	cases := map[int]int{2: 1, 4: 2, 8: 3, 16: 4}
	for size, bits := range cases {
		pts := make([]complex128, size)
		for i := range pts {
			pts[i] = complex(float64(i), 0)
		}
		c, err := NewConstellation("x", pts)
		if err != nil {
			t.Fatal(err)
		}
		if c.BitsPerSymbol() != bits {
			t.Fatalf("size %d: bits %d, want %d", size, c.BitsPerSymbol(), bits)
		}
	}
}

func TestMapUnmapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []*Constellation{newBPSK(), NewQPSK(), newOOK()} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			n := c.BitsPerSymbol() * (1 + r.Intn(100))
			bits := RandomBits(r, n)
			syms := c.MapBits(nil, bits)
			back := c.UnmapBits(nil, syms)
			if len(back) != len(bits) {
				return false
			}
			e, _ := bitErrors(bits, back)
			return e == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestMapBitsPadsPartialSymbol(t *testing.T) {
	c := NewQPSK()
	syms := c.MapBits(nil, []byte{1}) // one bit for a 2-bit symbol
	if len(syms) != 1 || syms[0] != 2 {
		t.Fatalf("padded symbol %v, want [2] (bit 1 then pad 0)", syms)
	}
}

func TestNearestAndSlice(t *testing.T) {
	c := NewQPSK()
	// Slightly perturbed points decide correctly.
	for i := 0; i < c.Size(); i++ {
		r := c.Point(i) + complex(0.05, -0.08)
		if c.Nearest(r) != i {
			t.Fatalf("nearest of perturbed point %d wrong", i)
		}
	}
	got := c.Slice(nil, []complex128{1.1, -0.9})
	if got[0] != 0 || got[1] != 3 {
		t.Fatalf("Slice got %v", got)
	}
}

func TestVanAttaStateSetsPlugIn(t *testing.T) {
	// The tag alphabets convert directly into constellations.
	for _, s := range []vanatta.StateSet{vanatta.OOK(), vanatta.BPSK(), vanatta.QPSK(), vanatta.QAM16()} {
		c, err := NewConstellation(s.Name(), s.States())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if c.BitsPerSymbol() != s.BitsPerSymbol() {
			t.Fatalf("%s: bits mismatch", s.Name())
		}
		// Round-trip through the constellation decisions with no noise.
		rng := rand.New(rand.NewSource(2))
		bits := RandomBits(rng, 4*s.BitsPerSymbol())
		syms := c.MapBits(nil, bits)
		rx := c.Modulate(nil, syms)
		decided := c.Slice(nil, rx)
		for i := range syms {
			if decided[i] != syms[i] {
				t.Fatalf("%s: noiseless decision error", s.Name())
			}
		}
	}
}

func TestMeanPower(t *testing.T) {
	if p := newBPSK().MeanPower(); math.Abs(p-1) > 1e-15 {
		t.Fatalf("BPSK mean power %g", p)
	}
	if p := newOOK().MeanPower(); math.Abs(p-0.5) > 1e-15 {
		t.Fatalf("OOK mean power %g", p)
	}
}

func TestEVM(t *testing.T) {
	c := NewQPSK()
	// Perfect points: EVM 0.
	if e := c.EVM(c.Points()); e != 0 {
		t.Fatalf("perfect EVM %g", e)
	}
	// Known offset: every point displaced by 0.1 -> EVM = 0.1 (unit power).
	rx := c.Points()
	for i := range rx {
		rx[i] += 0.1
	}
	if e := c.EVM(rx); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("EVM %g, want 0.1", e)
	}
	if c.EVM(nil) != 0 {
		t.Fatal("empty EVM must be 0")
	}
}

func TestEstimateGainAndScaleRotate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewQPSK()
	bits := RandomBits(rng, 64)
	syms := c.MapBits(nil, bits)
	tx := c.Modulate(nil, syms)
	// Apply a known channel gain.
	g := complex(0.02, -0.05)
	rx := make([]complex128, len(tx))
	for i := range tx {
		rx[i] = tx[i] * g
	}
	est, err := EstimateGain(rx, tx)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(est-g) > 1e-12 {
		t.Fatalf("gain estimate %v, want %v", est, g)
	}
	eq := ScaleRotateTo(nil, rx, est)
	for i := range eq {
		if cmplx.Abs(eq[i]-tx[i]) > 1e-9 {
			t.Fatal("equalized symbols must match tx")
		}
	}
}

func TestEstimateGainErrors(t *testing.T) {
	if _, err := EstimateGain([]complex128{1}, []complex128{1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := EstimateGain(nil, nil); err == nil {
		t.Fatal("empty must error")
	}
	if _, err := EstimateGain([]complex128{1}, []complex128{0}); err == nil {
		t.Fatal("zero-energy pilots must error")
	}
	if out := ScaleRotateTo(nil, []complex128{2}, 0); out[0] != 2 {
		t.Fatal("zero gain must pass through")
	}
}

func TestPointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newBPSK().Point(5)
}
