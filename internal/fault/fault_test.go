package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mmtag/internal/mac"
	"mmtag/internal/rfmath"
)

// fixedMedium is a trivial mac.Medium: every listed tag is audible at a
// constant linear SNR, independent of beam and rate.
type fixedMedium struct {
	ids []uint8
	snr float64
}

func (m *fixedMedium) Tags() []uint8 { return m.ids }
func (m *fixedMedium) SNR(uint8, float64, mac.Rate) (float64, bool) {
	return m.snr, true
}

func testRate() mac.Rate { return mac.Rate{Mod: mac.ModBPSK(), BitRate: 10e6} }

func newTestInjector(t *testing.T, plan Plan, seed int64, ids ...uint8) *Injector {
	t.Helper()
	if len(ids) == 0 {
		ids = []uint8{1, 2, 3}
	}
	x, err := NewInjector(plan, seed, &fixedMedium{ids: ids, snr: 100})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestFaultStreamsIndependentOfInterleaving is the substrate's central
// determinism guarantee: because every (kind, tag) pair owns a private
// seed-derived stream, the fault state observed for a tag at time t does
// not depend on how many queries *other* tags answered first. Two
// injectors with the same seed and plan, queried time-major versus
// tag-major, must answer identically at every (tag, t) grid point.
func TestFaultStreamsIndependentOfInterleaving(t *testing.T) {
	plan := Plan{
		Blockage: &BlockagePlan{AttenuationDB: 30, MeanClearS: 0.004, MeanBlockedS: 0.002},
		Death:    &DeathPlan{Prob: 0.5, MeanLifetimeS: 0.02},
		SNRNoise: &SNRNoisePlan{SigmaDB: 2},
	}
	ids := []uint8{1, 2, 3, 4}
	times := make([]float64, 200)
	for i := range times {
		times[i] = float64(i) * 2.5e-4
	}
	type key struct {
		id uint8
		ti int
	}
	query := func(x *Injector, clock *float64, id uint8, ti int) (float64, bool) {
		*clock = times[ti]
		return x.SNR(id, 0, testRate())
	}

	gotA := map[key][2]float64{}
	var clockA float64
	a := newTestInjector(t, plan, 99, ids...)
	a.SetClock(func() float64 { return clockA })
	for ti := range times { // time-major: all tags at t0, then t1, ...
		for _, id := range ids {
			snr, ok := query(a, &clockA, id, ti)
			gotA[key{id, ti}] = [2]float64{snr, b2f(ok)}
		}
	}

	var clockB float64
	b := newTestInjector(t, plan, 99, ids...)
	b.SetClock(func() float64 { return clockB })
	for _, id := range ids { // tag-major: tag 1's whole history, then tag 2's...
		for ti := range times {
			snr, ok := query(b, &clockB, id, ti)
			if want := gotA[key{id, ti}]; snr != want[0] || b2f(ok) != want[1] {
				t.Fatalf("tag %d t=%g: tag-major (%g,%v) != time-major (%g,%v)",
					id, times[ti], snr, ok, want[0], want[1] == 1)
			}
		}
	}
	if a.Stats().Deaths != b.Stats().Deaths {
		t.Fatalf("death counts diverge: %d vs %d", a.Stats().Deaths, b.Stats().Deaths)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestFaultBlockageOccupancy checks the Gilbert–Elliott chain's
// long-run blocked fraction matches MeanBlocked/(MeanClear+MeanBlocked)
// and that blocked samples show exactly the configured attenuation.
func TestFaultBlockageOccupancy(t *testing.T) {
	plan := Plan{Blockage: &BlockagePlan{AttenuationDB: 20, MeanClearS: 0.01, MeanBlockedS: 0.01}}
	x := newTestInjector(t, plan, 7, 1)
	var now float64
	x.SetClock(func() float64 { return now })
	att := rfmath.FromDB(-20)
	blocked, total := 0, 0
	for now = 0; now < 5; now += 1e-4 {
		snr, ok := x.SNR(1, 0, testRate())
		if !ok {
			t.Fatal("blockage must attenuate, not silence")
		}
		total++
		switch {
		case math.Abs(snr-100*att) < 1e-9:
			blocked++
		case math.Abs(snr-100) < 1e-9:
		default:
			t.Fatalf("SNR %g is neither clear (100) nor blocked (%g)", snr, 100*att)
		}
	}
	frac := float64(blocked) / float64(total)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("blocked fraction %.3f, want ~0.5 for equal dwells", frac)
	}
	if x.Stats().BlockageTransitions == 0 {
		t.Fatal("no transitions counted")
	}
}

// TestFaultDeadByAndPermanence checks death draws: with Prob=1 every
// tag dies, DeadBy respects the horizon and sorts ascending, and a dead
// tag stays silent forever (counted once).
func TestFaultDeadByAndPermanence(t *testing.T) {
	plan := Plan{Death: &DeathPlan{Prob: 1, MeanLifetimeS: 0.01}}
	x := newTestInjector(t, plan, 3, 3, 1, 2)
	if got := x.DeadBy(0); len(got) != 0 {
		t.Fatalf("DeadBy(0) = %v, want none (death times are positive)", got)
	}
	all := x.DeadBy(math.Inf(1))
	if !reflect.DeepEqual(all, []uint8{1, 2, 3}) {
		t.Fatalf("DeadBy(inf) = %v, want [1 2 3]", all)
	}
	var now float64 = 10 // long past every death
	x.SetClock(func() float64 { return now })
	for _, id := range all {
		for i := 0; i < 3; i++ {
			if _, ok := x.SNR(id, 0, testRate()); ok {
				t.Fatalf("dead tag %d still audible", id)
			}
		}
	}
	if got := x.Stats().Deaths; got != 3 {
		t.Fatalf("Deaths = %d, want 3 (each counted once)", got)
	}

	// Prob=0 kills nobody.
	none := newTestInjector(t, Plan{Death: &DeathPlan{Prob: 0}}, 3, 1, 2)
	if got := none.DeadBy(math.Inf(1)); len(got) != 0 {
		t.Fatalf("Prob=0 DeadBy = %v", got)
	}
}

// TestFaultBrownoutDutyCycle checks the harvest model: duty rises
// monotonically with incident power, and the observed starved fraction
// over many periods tracks 1-duty.
func TestFaultBrownoutDutyCycle(t *testing.T) {
	var prev float64 = -1
	for _, dbm := range []float64{-14, -12, -10, -8, -6} {
		p := BrownoutPlan{IncidentPowerW: rfmath.FromDBm(dbm)}
		d := p.DutyCycle()
		if d < prev {
			t.Fatalf("duty not monotone at %g dBm: %g < %g", dbm, d, prev)
		}
		if d < 0 || d > 1 {
			t.Fatalf("duty %g out of [0,1]", d)
		}
		prev = d
	}

	plan := Plan{Brownout: &BrownoutPlan{IncidentPowerW: rfmath.FromDBm(-10), PeriodS: 0.01}}
	x := newTestInjector(t, plan, 11, 1, 2, 3, 4)
	duty := plan.Brownout.DutyCycle()
	var now float64
	x.SetClock(func() float64 { return now })
	starved, total := 0, 0
	for now = 0; now < 2; now += 1e-4 {
		for _, id := range []uint8{1, 2, 3, 4} {
			if _, ok := x.SNR(id, 0, testRate()); !ok {
				starved++
			}
			total++
		}
	}
	frac := float64(starved) / float64(total)
	if want := 1 - duty; math.Abs(frac-want) > 0.05 {
		t.Fatalf("starved fraction %.3f, want ~%.3f (duty %.3f)", frac, want, duty)
	}
}

// TestFaultAckLossProbabilities pins the degenerate ACK-loss rates and
// the drop counter.
func TestFaultAckLossProbabilities(t *testing.T) {
	never := newTestInjector(t, Plan{AckLoss: &AckLossPlan{Prob: 0}}, 5, 1)
	always := newTestInjector(t, Plan{AckLoss: &AckLossPlan{Prob: 1}}, 5, 1)
	for i := 0; i < 50; i++ {
		if never.AckLost(1) {
			t.Fatal("Prob=0 dropped an ACK")
		}
		if !always.AckLost(1) {
			t.Fatal("Prob=1 delivered an ACK")
		}
	}
	if got := always.Stats().AcksDropped; got != 50 {
		t.Fatalf("AcksDropped = %d, want 50", got)
	}
	// Unknown tags (no fault state) pass through.
	if always.AckLost(99) {
		t.Fatal("unknown tag must not lose ACKs")
	}
}

// TestFaultSNRNoiseCorrupts checks estimate corruption perturbs the
// answer without silencing the tag, and counts each corruption.
func TestFaultSNRNoiseCorrupts(t *testing.T) {
	x := newTestInjector(t, Plan{SNRNoise: &SNRNoisePlan{SigmaDB: 3}}, 13, 1)
	changed := 0
	for i := 0; i < 100; i++ {
		snr, ok := x.SNR(1, 0, testRate())
		if !ok {
			t.Fatal("noise must not silence")
		}
		if snr <= 0 {
			t.Fatalf("corrupted SNR %g must stay positive (log-normal)", snr)
		}
		if math.Abs(snr-100) > 1e-9 {
			changed++
		}
	}
	if changed < 90 {
		t.Fatalf("only %d/100 queries corrupted", changed)
	}
	if got := x.Stats().SNRCorrupted; got != 100 {
		t.Fatalf("SNRCorrupted = %d, want 100", got)
	}
}

// TestFaultParseSpecRoundTrip checks String/ParseSpec are inverses on
// the canonical form.
func TestFaultParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"blockage=30,clear=0.02,blocked=0.005",
		"death=0.25,lifetime=0.05",
		"brownout=-10,period=0.01",
		"ackloss=0.2",
		"snr=2",
		"blockage=40,clear=0.01,blocked=0.002,death=0.5,lifetime=0.02,brownout=-8,period=0.03,ackloss=0.3,snr=1.5",
	}
	for _, spec := range specs {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		round, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if round.String() != p.String() {
			t.Fatalf("%q round-trips to %q", p.String(), round.String())
		}
	}
	// Empty spec means no plan.
	if p, err := ParseSpec("  "); err != nil || p != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
}

// FuzzParseSpec feeds arbitrary POST /config fault specs through the
// parser: it must never panic, and a spec it accepts must hold only
// finite values and be a fixed point of String ∘ ParseSpec.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"blockage=30,clear=0.02,blocked=0.005",
		"death=0.25,lifetime=0.05",
		"brownout=-10,period=0.01",
		"ackloss=0.2",
		"snr=2",
		"blockage=40,clear=0.01,blocked=0.002,death=0.5,lifetime=0.02,brownout=-8,period=0.03,ackloss=0.3,snr=1.5",
		"death=NaN",
		",",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil || p == nil {
			return
		}
		var vs []float64
		if b := p.Blockage; b != nil {
			vs = append(vs, b.AttenuationDB, b.MeanClearS, b.MeanBlockedS)
		}
		if d := p.Death; d != nil {
			vs = append(vs, d.Prob, d.MeanLifetimeS)
		}
		if b := p.Brownout; b != nil {
			vs = append(vs, b.IncidentPowerW, b.PeriodS, b.LoadW)
		}
		if a := p.AckLoss; a != nil {
			vs = append(vs, a.Prob)
		}
		if s := p.SNRNoise; s != nil {
			vs = append(vs, s.SigmaDB)
		}
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q accepted with a non-finite value: %+v", spec, p)
			}
		}
		round, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("%q: re-parse of %q: %v", spec, p.String(), err)
		}
		// An empty plan renders as "", which parses to the nil plan.
		got := ""
		if round != nil {
			got = round.String()
		}
		if got != p.String() {
			t.Fatalf("%q: %q round-trips to %q", spec, p.String(), got)
		}
	})
}

// TestFaultParseSpecErrors pins the parser's rejection surface.
func TestFaultParseSpecErrors(t *testing.T) {
	cases := map[string]string{
		"blockage":                "not key=value",
		"warp=9":                  "unknown spec key",
		"blockage=30,blockage=20": "repeated",
		"blockage=abc":            "invalid syntax",
		"clear=0.01":              "need blockage=",
		"lifetime=0.1":            "needs death=",
		"period=0.01":             "needs brownout=",
		"death=1.5":               "must be in [0,1]",
		"ackloss=-0.1":            "must be in [0,1]",
		"blockage=-3":             "must be positive",
		"snr=-1":                  "must be non-negative",
		"death=NaN":               "must be finite",
		"ackloss=NaN":             "must be finite",
		"snr=+Inf":                "must be finite",
		"blockage=NaN":            "must be finite",
		"brownout=NaN":            "must be finite",
		"blockage=30,clear=NaN":   "must be finite",
		"death=0.5,lifetime=NaN":  "must be finite",
		"brownout=-3200":          "must be positive and normal",
	}
	for spec, wantSub := range cases {
		_, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("%q: expected error", spec)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%q: error %q missing %q", spec, err, wantSub)
		}
	}
}

// TestFaultInjectorValidation covers constructor errors and pass-through
// for tags added after construction.
func TestFaultInjectorValidation(t *testing.T) {
	if _, err := NewInjector(Plan{}, 1, nil); err == nil {
		t.Fatal("nil medium must error")
	}
	bad := Plan{Brownout: &BrownoutPlan{IncidentPowerW: -1}}
	if _, err := NewInjector(bad, 1, &fixedMedium{ids: []uint8{1}, snr: 10}); err == nil {
		t.Fatal("invalid plan must error")
	}
	// A tag unknown to the injector passes through unfaulted.
	x := newTestInjector(t, Plan{Death: &DeathPlan{Prob: 1, MeanLifetimeS: 1e-6}}, 1, 1)
	var now float64 = 10
	x.SetClock(func() float64 { return now })
	if _, ok := x.SNR(200, 0, testRate()); !ok {
		t.Fatal("unknown tag must pass through")
	}
}
