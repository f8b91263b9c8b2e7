package link

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/mac"
	"mmtag/internal/par"
	"mmtag/internal/rfmath"
)

func TestTierString(t *testing.T) {
	if TierWaveform.String() != "a" || TierSymbol.String() != "b" || TierBudget.String() != "c" {
		t.Fatalf("tier letters wrong: %v %v %v", TierWaveform, TierSymbol, TierBudget)
	}
}

func TestThresholdsPick(t *testing.T) {
	th := Thresholds{WaveformMinDB: 30, SymbolMinDB: 15}
	cases := []struct {
		snr  float64
		want Tier
	}{
		{35, TierWaveform}, {30, TierWaveform},
		{29.9, TierSymbol}, {15, TierSymbol},
		{14.9, TierBudget}, {-40, TierBudget},
		{math.Inf(-1), TierBudget}, {math.Inf(1), TierWaveform},
		{math.NaN(), TierBudget},
	}
	for _, c := range cases {
		if got := th.Pick(c.snr); got != c.want {
			t.Errorf("Pick(%g) = %v, want %v", c.snr, got, c.want)
		}
	}
}

func TestThresholdsNormalizeInverted(t *testing.T) {
	// An inverted pair (waveform bound below symbol bound) must still
	// pick monotonically: the waveform bound is raised to the symbol
	// bound, never the other way around.
	th := Thresholds{WaveformMinDB: 10, SymbolMinDB: 20}
	prev := TierBudget
	for snr := -10.0; snr <= 40; snr += 0.25 {
		cur := th.Pick(snr)
		if cur > prev {
			t.Fatalf("Pick not monotone at %g dB: %v after %v", snr, cur, prev)
		}
		prev = cur
	}
	if th.Pick(15) != TierBudget {
		t.Fatalf("inverted thresholds: 15 dB should stay tier c, got %v", th.Pick(15))
	}
}

func TestAllBudget(t *testing.T) {
	th := AllBudget()
	for _, snr := range []float64{-100, 0, 50, 500} {
		if got := th.Pick(snr); got != TierBudget {
			t.Fatalf("AllBudget().Pick(%g) = %v", snr, got)
		}
	}
}

func TestBudgetMeasureBERDeterministic(t *testing.T) {
	var b Budget
	mod := mac.ModQPSK()
	r1, err := b.MeasureBER(mod, rfmath.FromDB(4), 60000, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := b.MeasureBER(mod, rfmath.FromDB(4), 60000, nil)
	if r1 != r2 {
		t.Fatalf("tier c not deterministic: %+v vs %+v", r1, r2)
	}
	want := rfmath.BERQPSK(rfmath.FromDB(4))
	if got := r1.Rate(); math.Abs(got-want) > 1.0/60000 {
		t.Fatalf("tier c BER %g far from closed form %g", got, want)
	}
}

func TestBudgetSuccessProbBounds(t *testing.T) {
	var b Budget
	r := mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6}
	for _, snr := range []float64{math.NaN(), math.Inf(-1), -5, 0, 1e-12, 1, 100, math.Inf(1)} {
		p := b.SuccessProb(r, snr, 400)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("SuccessProb(snr=%g) = %g out of [0,1]", snr, p)
		}
	}
	if p := b.SuccessProb(r, 1e6, 400); p < 0.999 {
		t.Fatalf("huge SNR should succeed, got %g", p)
	}
	if p := b.SuccessProb(r, 1e-9, 400); p > 1e-3 {
		t.Fatalf("dead link should fail, got %g", p)
	}
	if p := b.SuccessProb(r, 10, 0); p != 1 {
		t.Fatalf("zero air bits must be certain success, got %g", p)
	}
}

func TestBudgetFrameOutcomeMatchesProb(t *testing.T) {
	var b Budget
	r := mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6}
	const snrDB, airBits, n = 8.0, 400, 20000
	p := b.SuccessProb(r, rfmath.FromDB(snrDB), airBits)
	if p < 0.05 || p > 0.95 {
		t.Fatalf("test point not informative: p=%g", p)
	}
	s := par.NewStream(7, 1)
	ok := 0
	for i := 0; i < n; i++ {
		if b.FrameOutcome(r, rfmath.FromDB(snrDB), airBits, &s) {
			ok++
		}
	}
	if z := ZAgainstModel(ok, n, p); z > ZThreshold {
		t.Fatalf("FrameOutcome rate %d/%d disagrees with SuccessProb %g (z=%.1f)", ok, n, p, z)
	}
}

func TestSymbolMeasureBERMatchesPhy(t *testing.T) {
	s := NewSymbol()
	mod := mac.ModBPSK()
	ebn0 := rfmath.FromDB(4)
	got, err := s.MeasureBER(mod, ebn0, 60000, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	want := rfmath.BERBPSK(ebn0)
	if z := ZAgainstModel(got.Errors, got.Bits, want); z > ZThreshold {
		t.Fatalf("symbol BER %g vs closed form %g: z=%.1f", got.Rate(), want, z)
	}
}

func TestWaveformMeasureBERSane(t *testing.T) {
	w := NewWaveform()
	mod := mac.ModQPSK()
	ebn0 := rfmath.FromDB(4)
	got, err := w.MeasureBER(mod, ebn0, 60000, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	want := rfmath.BERQPSK(ebn0)
	if z := ZAgainstModel(got.Errors, got.Bits, want); z > ZThreshold {
		t.Fatalf("waveform BER %g vs closed form %g: z=%.1f", got.Rate(), want, z)
	}
}

func TestWaveformFrameSuccessEndpoints(t *testing.T) {
	w := NewWaveform()
	r := mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6}
	rng := rand.New(rand.NewSource(1))
	ok, err := w.FrameSuccess(r, rfmath.FromDB(25), 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("25 dB frame should decode")
	}
	ok, err = w.FrameSuccess(r, rfmath.FromDB(-20), 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("-20 dB frame should not decode")
	}
	if ok, _ := w.FrameSuccess(r, math.NaN(), 32, rng); ok {
		t.Fatal("NaN SNR must fail closed")
	}
}
