package phy

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"mmtag/internal/fastrand"
	"mmtag/internal/vanatta"
)

// stagedBER is the original buffered MeasureBER pipeline — RandomBits,
// MapBits, Modulate, per-symbol noise, Slice, UnmapBits, BitErrors —
// kept as a reference to pin the fused implementation's RNG draw order
// and arithmetic.
func stagedBER(t *testing.T, c *Constellation, ebn0 float64, nBits int, rng *rand.Rand) BERResult {
	t.Helper()
	txBits := RandomBits(rng, nBits)
	syms := c.MapBits(nil, txBits)
	tx := c.Modulate(nil, syms)
	es := c.MeanPower()
	n0 := es / (ebn0 * float64(c.BitsPerSymbol()))
	sigma := math.Sqrt(n0 / 2)
	rx := make([]complex128, len(tx))
	for i, v := range tx {
		rx[i] = v + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	rxSyms := c.Slice(nil, rx)
	rxBits := c.UnmapBits(nil, rxSyms)[:nBits]
	errs, err := bitErrors(txBits, rxBits)
	if err != nil {
		t.Fatal(err)
	}
	return BERResult{Bits: nBits, Errors: errs}
}

// TestMeasureBERMatchesStagedReference verifies the fused measurement is
// draw-for-draw identical to the staged pipeline on the same RNG stream,
// including bit counts that do not fill the final symbol.
func TestMeasureBERMatchesStagedReference(t *testing.T) {
	qam16 := make([]complex128, 0, 16)
	for _, re := range []float64{-3, -1, 1, 3} {
		for _, im := range []float64{-3, -1, 1, 3} {
			qam16 = append(qam16, complex(re, im))
		}
	}
	q16, err := NewConstellation("qam16", qam16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Constellation{newBPSK(), NewQPSK(), newOOK(), q16} {
		for _, nBits := range []int{1, 7, 1000, 1001, 1003} {
			for _, ebn0 := range []float64{1, 5} {
				want := stagedBER(t, c, ebn0, nBits, rand.New(rand.NewSource(77)))
				got, err := MeasureBER(c, ebn0, nBits, rand.New(rand.NewSource(77)))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s nBits=%d ebn0=%g: fused %+v != staged %+v",
						c.Name(), nBits, ebn0, got, want)
				}
			}
		}
	}
}

// Steady-state measurements on the reference loop allocate nothing: it
// borrows its symbol buffer from the arena pool like the fused body
// (TestMeasureBERFastZeroAlloc), and a fused-body generator made for
// one call stays on the caller's stack.
func TestMeasureBERZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := NewQPSK()
	rng := rand.New(rand.NewSource(5))
	if _, err := MeasureBER(c, 5, 4096, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := MeasureBER(c, 5, 4096, rng); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MeasureBER(*rand.Rand) allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := MeasureBER(c, 5, 4096, fastrand.New(5)); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MeasureBER with a fresh generator allocates %.1f/op, want 0", allocs)
	}
}

// MeasureBER on a *fastrand.Rand (the fused body) must reproduce it on
// a *rand.Rand (the reference loop) exactly — same error counts AND
// same stream consumption — for every slicer shape (grid, diamond,
// scan fallback), partial final symbols, and a shared stream threading
// through many measurements (the way E3 uses it).
func TestMeasureBERFusedMatchesReference(t *testing.T) {
	sets := []vanatta.StateSet{
		vanatta.OOK(),   // 1-D grid
		vanatta.BPSK(),  // 1-D grid
		vanatta.QPSK(),  // diamond
		vanatta.PSK8(),  // scan fallback
		vanatta.QAM16(), // 2-D grid
	}
	for _, seed := range []int64{1, 42, 77} {
		ref := rand.New(rand.NewSource(seed))
		got := fastrand.New(seed)
		for _, set := range sets {
			c, err := NewConstellation(set.Name(), set.States())
			if err != nil {
				t.Fatal(err)
			}
			for _, nBits := range []int{1, 7, 1000, 60001} {
				for _, ebn0 := range []float64{1.58, 6.31} {
					want, err1 := MeasureBER(c, ebn0, nBits, ref)
					have, err2 := MeasureBER(c, ebn0, nBits, got)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s: errs %v / %v", set.Name(), err1, err2)
					}
					if want != have {
						t.Fatalf("%s seed=%d nBits=%d ebn0=%g: %+v != %+v",
							set.Name(), seed, nBits, ebn0, have, want)
					}
				}
			}
		}
		// Stream positions must agree after all measurements.
		if a, b := ref.Int63(), got.Int63(); a != b {
			t.Fatalf("seed %d: streams desynchronized (%d vs %d)", seed, a, b)
		}
	}
}

// Both checks run before MeasureBER picks its body, so the fused body
// never sees an invalid Eb/N0 or bit count.
func TestMeasureBERFastValidation(t *testing.T) {
	c := newOOK()
	rng := fastrand.New(1)
	if _, err := MeasureBER(c, 0, 100, rng); err == nil {
		t.Fatal("zero Eb/N0 must error")
	}
	if _, err := MeasureBER(c, 1, 0, rng); err == nil {
		t.Fatal("zero bits must error")
	}
}

// Steady-state measurements on a *fastrand.Rand (the fused body) must
// not allocate.
func TestMeasureBERFastZeroAlloc(t *testing.T) {
	c := NewQPSK()
	rng := fastrand.New(9)
	MeasureBER(c, 2.0, 4096, rng) // warm the arena pool
	allocs := testing.AllocsPerRun(10, func() {
		MeasureBER(c, 2.0, 4096, rng)
	})
	if allocs != 0 {
		t.Fatalf("MeasureBER(*fastrand.Rand) allocates %v per run, want 0", allocs)
	}
}

func BenchmarkMeasureBER(b *testing.B) {
	c, err := NewConstellation("16qam", vanatta.QAM16().States())
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		rng  fastrand.RNG
	}{
		{"fused", fastrand.New(1)},
		{"reference", rand.New(rand.NewSource(1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MeasureBER(c, 4.0, 100000, bc.rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
