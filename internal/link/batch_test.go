package link

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/fastrand"
	"mmtag/internal/mac"
)

// batchTrialSpec drives the serial/batched comparison: rate, SNR and
// payload per trial, with some SNRs invalid on purpose.
type batchTrialSpec struct {
	rate    mac.Rate
	snr     float64
	payload int
}

func mixedTrialSpecs() []batchTrialSpec {
	qpsk := mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6}
	qpskCoded := mac.Rate{Mod: mac.ModQPSK(), BitRate: 10e6, Coded: true}
	bpsk := mac.Rate{Mod: mac.ModBPSK(), BitRate: 10e6}
	return []batchTrialSpec{
		{qpsk, 200, 12},
		{bpsk, 150, 8},
		{qpsk, math.NaN(), 12}, // invalid: no RNG draws, auto-false
		{qpskCoded, 80, 16},
		{qpsk, 0.02, 12}, // deep fade: demod should fail
		{bpsk, -3, 8},    // invalid
		{qpskCoded, 120, 4},
		{qpsk, 500, 20},
	}
}

// stageAndFlush stages every spec as one trial on a fresh FrameBatch,
// drawing from rng in stage order, then flushes them all at once.
func stageAndFlush(t *testing.T, w *Waveform, specs []batchTrialSpec, rng fastrand.RNG) []bool {
	t.Helper()
	var b FrameBatch
	for i, sp := range specs {
		if err := w.StageFrame(&b, sp.rate, sp.snr, sp.payload, rng); err != nil {
			t.Fatalf("stage trial %d: %v", i, err)
		}
	}
	got, err := w.FlushFrames(&b, nil)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if len(got) != len(specs) {
		t.Fatalf("got %d outcomes for %d trials", len(got), len(specs))
	}
	return got
}

// checkOneFlushMatchesSingles holds N trials in one flush to N
// one-trial FrameSuccess calls: the same outcomes and the same RNG
// consumption, trial for trial.
func checkOneFlushMatchesSingles(t *testing.T, specs []batchTrialSpec, seed int64) {
	t.Helper()
	singleEng, batchEng := NewWaveform(), NewWaveform()
	singleRng := rand.New(rand.NewSource(seed))
	batchRng := rand.New(rand.NewSource(seed))
	want := make([]bool, len(specs))
	for i, sp := range specs {
		got, err := singleEng.FrameSuccess(sp.rate, sp.snr, sp.payload, singleRng)
		if err != nil {
			t.Fatalf("single trial %d: %v", i, err)
		}
		want[i] = got
	}
	got := stageAndFlush(t, batchEng, specs, batchRng)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trial %d: one flush=%v single=%v", i, got[i], want[i])
		}
	}
	// Both rngs must have advanced identically: the next draws match.
	if a, b := singleRng.Int63(), batchRng.Int63(); a != b {
		t.Errorf("rng streams diverged after trials (%d vs %d)", a, b)
	}
}

// TestFrameSuccessOneFlushMatchesSingles checks a multi-trial flush
// against one-trial FrameSuccess calls across mixed modulations, coded
// and uncoded rates, and invalid SNRs, at several batch sizes — the
// gathered (one group per demodulator) flush path.
func TestFrameSuccessOneFlushMatchesSingles(t *testing.T) {
	specs := mixedTrialSpecs()
	for _, n := range []int{1, 2, 7, len(specs) * 8} {
		trials := make([]batchTrialSpec, n)
		for i := range trials {
			trials[i] = specs[i%len(specs)]
		}
		t.Run(fmt.Sprintf("n-%d", n), func(t *testing.T) {
			checkOneFlushMatchesSingles(t, trials, 42)
		})
	}
}

// TestFrameSuccessOneFlushHomogeneous exercises the no-gather flush
// path: every trial the same demodulator, including deep-fade failures.
func TestFrameSuccessOneFlushHomogeneous(t *testing.T) {
	r := mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6}
	var specs []batchTrialSpec
	for _, snr := range []float64{300, 0.01, 120, 90, 250, 0.02, 70} {
		specs = append(specs, batchTrialSpec{r, snr, 10})
	}
	checkOneFlushMatchesSingles(t, specs, 7)
}

// TestStageFrameErrors checks stage-time validation.
func TestStageFrameErrors(t *testing.T) {
	w := NewWaveform()
	var b FrameBatch
	rng := rand.New(rand.NewSource(1))
	r := mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6}
	if err := w.StageFrame(&b, r, 100, -1, rng); err == nil {
		t.Fatal("negative payload: want error")
	}
	bad := mac.Rate{Mod: mac.Modulation{Name: "nope", BitsPerSymbol: 1}, BitRate: 1e6}
	if err := w.StageFrame(&b, bad, 100, 8, rng); err == nil {
		t.Fatal("unknown modulation: want error")
	}
	// Batch reuse after Reset: stage+flush twice on the same FrameBatch.
	for round := 0; round < 2; round++ {
		if err := w.StageFrame(&b, r, 200, 8, rng); err != nil {
			t.Fatalf("round %d stage: %v", round, err)
		}
		ok, err := w.FlushFrames(&b, nil)
		if err != nil {
			t.Fatalf("round %d flush: %v", round, err)
		}
		if len(ok) != 1 || !ok[0] {
			t.Fatalf("round %d: want one success, got %v", round, ok)
		}
		if b.Len() != 0 {
			t.Fatalf("round %d: batch not reset, len=%d", round, b.Len())
		}
	}
}
