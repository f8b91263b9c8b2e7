package link

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"mmtag/internal/fastrand"
	"mmtag/internal/mac"
	"mmtag/internal/rfmath"
)

// rngRates covers every slicer shape the fused BER body specializes
// (OOK and BPSK 1-D grids, the QPSK diamond, the 16-QAM 2-D grid) with
// coded and uncoded frames.
func rngRates() []mac.Rate {
	return []mac.Rate{
		{Mod: mac.ModOOK(), BitRate: 10e6},
		{Mod: mac.ModBPSK(), BitRate: 10e6},
		{Mod: mac.ModBPSK(), BitRate: 10e6, Coded: true},
		{Mod: mac.ModQPSK(), BitRate: 20e6},
		{Mod: mac.ModQPSK(), BitRate: 10e6, Coded: true},
		{Mod: mac.ModQAM16(), BitRate: 40e6},
		{Mod: mac.ModQAM16(), BitRate: 20e6, Coded: true},
	}
}

// rngSNRsDB spans certain loss through the frame-error waterfall to
// certain delivery, so outcomes of both signs are compared. NaN is the
// invalid input every engine must reject without drawing.
var rngSNRsDB = []float64{math.NaN(), -3, 6, 10, 13, 16, 20, 30}

// Every link engine must draw the same stream and return the same
// outcomes whether it is handed a *rand.Rand (the kernels' reference
// loops) or a *fastrand.Rand (their fused bodies): the scale engine's
// results may not depend on which generator type carries the seed.
func TestEnginesMatchAcrossGenerators(t *testing.T) {
	type trial struct {
		r   mac.Rate
		snr float64
	}
	var trials []trial
	for _, r := range rngRates() {
		for _, db := range rngSNRsDB {
			trials = append(trials, trial{r, rfmath.FromDB(db)})
		}
	}
	trials = append(trials, trial{rngRates()[3], -1}) // negative linear SNR
	const payload = 12

	engines := []struct {
		name string
		run  func(rng fastrand.RNG) ([]bool, error)
	}{
		{"budget", func(rng fastrand.RNG) ([]bool, error) {
			var b Budget
			var out []bool
			for _, tr := range trials {
				ok, err := b.FrameSuccess(tr.r, tr.snr, payload, rng)
				if err != nil {
					return nil, err
				}
				out = append(out, ok)
			}
			return out, nil
		}},
		{"symbol", func(rng fastrand.RNG) ([]bool, error) {
			s := NewSymbol()
			var out []bool
			for _, tr := range trials {
				ok, err := s.FrameSuccess(tr.r, tr.snr, payload, rng)
				if err != nil {
					return nil, err
				}
				out = append(out, ok)
			}
			return out, nil
		}},
		{"waveform", func(rng fastrand.RNG) ([]bool, error) {
			w := NewWaveform()
			var out []bool
			for _, tr := range trials {
				ok, err := w.FrameSuccess(tr.r, tr.snr, payload, rng)
				if err != nil {
					return nil, err
				}
				out = append(out, ok)
			}
			return out, nil
		}},
		{"waveform-batch", func(rng fastrand.RNG) ([]bool, error) {
			w := NewWaveform()
			var b FrameBatch
			for _, tr := range trials {
				if err := w.StageFrame(&b, tr.r, tr.snr, payload, rng); err != nil {
					return nil, err
				}
			}
			return w.FlushFrames(&b, nil)
		}},
	}
	for _, eng := range engines {
		for _, seed := range []int64{3, 99} {
			ref := rand.New(rand.NewSource(seed))
			fast := fastrand.New(seed)
			want, err := eng.run(ref)
			if err != nil {
				t.Fatalf("%s seed %d reference: %v", eng.name, seed, err)
			}
			got, err := eng.run(fast)
			if err != nil {
				t.Fatalf("%s seed %d fastrand: %v", eng.name, seed, err)
			}
			delivered := 0
			for i := range want {
				if got[i] != want[i] {
					tr := trials[i]
					t.Errorf("%s seed %d trial %d (%s coded=%v snr=%g): fastrand=%v reference=%v",
						eng.name, seed, i, tr.r.Mod.Name, tr.r.Coded, tr.snr, got[i], want[i])
				}
				if want[i] {
					delivered++
				}
			}
			if delivered == 0 || delivered == len(want) {
				t.Errorf("%s seed %d: %d of %d delivered; the grid must show both outcomes",
					eng.name, seed, delivered, len(want))
			}
			if a, b := ref.Int63(), fast.Int63(); a != b {
				t.Errorf("%s seed %d: streams desynchronized (%d vs %d)", eng.name, seed, a, b)
			}
		}
	}
}

// Tier b's per-frame call is allocation-free on the scale engine's
// generator and default rate (uncoded QPSK): the constellation is
// cached and the fused BER body borrows its symbol buffer from the
// arena pool.
func TestSymbolFrameSuccessZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := NewSymbol()
	rng := fastrand.New(11)
	r := mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6}
	snr := rfmath.FromDB(12)
	if _, err := s.FrameSuccess(r, snr, 64, rng); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.FrameSuccess(r, snr, 64, rng); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Symbol.FrameSuccess allocates %.1f/op, want 0", allocs)
	}
}
