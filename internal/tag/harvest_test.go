package tag

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultHarvesterValid(t *testing.T) {
	if err := DefaultHarvester().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHarvesterValidation(t *testing.T) {
	bad := []Harvester{
		{SplitFraction: 0, PeakEfficiency: 0.3, KneeW: 1e-4, SensitivityW: 1e-5},
		{SplitFraction: 1, PeakEfficiency: 0.3, KneeW: 1e-4, SensitivityW: 1e-5},
		{SplitFraction: 0.5, PeakEfficiency: 0, KneeW: 1e-4, SensitivityW: 1e-5},
		{SplitFraction: 0.5, PeakEfficiency: 1.5, KneeW: 1e-4, SensitivityW: 1e-5},
		{SplitFraction: 0.5, PeakEfficiency: 0.3, KneeW: 0, SensitivityW: 0},
		{SplitFraction: 0.5, PeakEfficiency: 0.3, KneeW: 1e-5, SensitivityW: 1e-4},
	}
	// A NaN or +Inf in any field must fail too: NaN is false under
	// every range comparison, and +Inf passes the one-sided ones.
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for f := 0; f < 4; f++ {
			h := DefaultHarvester()
			fields := []*float64{&h.SplitFraction, &h.PeakEfficiency, &h.KneeW, &h.SensitivityW}
			*fields[f] = v
			bad = append(bad, h)
		}
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Fatalf("harvester %d must fail validation", i)
		}
	}
}

func TestEfficiencyShape(t *testing.T) {
	h := DefaultHarvester()
	// Zero below sensitivity and exactly at it.
	if h.Efficiency(0) != 0 || h.Efficiency(h.SensitivityW*0.99) != 0 {
		t.Fatal("below-sensitivity efficiency must be zero")
	}
	if e := h.Efficiency(h.SensitivityW); e > 1e-12 {
		t.Fatalf("efficiency at sensitivity %g, want ~0", e)
	}
	// Monotone increasing, saturating at the peak.
	prev := -1.0
	for p := h.SensitivityW; p < 1; p *= 2 {
		e := h.Efficiency(p)
		if e < prev-1e-15 {
			t.Fatalf("efficiency not monotone at %g", p)
		}
		if e > h.PeakEfficiency+1e-12 {
			t.Fatalf("efficiency %g exceeds peak", e)
		}
		prev = e
	}
	if e := h.Efficiency(1); e < h.PeakEfficiency*0.95 {
		t.Fatalf("strong-drive efficiency %g, want near peak %g", e, h.PeakEfficiency)
	}
}

func TestEfficiencyMonotoneProperty(t *testing.T) {
	h := DefaultHarvester()
	f := func(a, b uint32) bool {
		pa := float64(a%1_000_000+1) * 1e-9
		pb := float64(b%1_000_000+1) * 1e-9
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Efficiency(pb) >= h.Efficiency(pa)-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHarvestedPower(t *testing.T) {
	h := DefaultHarvester()
	// Half the incident power is routed to the rectifier.
	in := 2e-4
	want := in * h.SplitFraction * h.Efficiency(in*h.SplitFraction)
	if got := h.HarvestedPowerW(in); math.Abs(got-want) > 1e-18 {
		t.Fatalf("harvested %g, want %g", got, want)
	}
	if h.HarvestedPowerW(1e-9) != 0 {
		t.Fatal("below-sensitivity harvest must be zero")
	}
}

func TestDutyCycle(t *testing.T) {
	h := DefaultHarvester()
	p := DefaultPowerModel()
	load := p.BackscatterPowerW(10e6)
	// Hopeless input: zero duty cycle.
	if d := h.DutyCycle(1e-9, load, p.SleepPowerW()); d != 0 {
		t.Fatalf("starved duty cycle %g", d)
	}
	// Overwhelming input: continuous.
	if d := h.DutyCycle(1, load, p.SleepPowerW()); d != 1 {
		t.Fatalf("saturated duty cycle %g", d)
	}
	// In between: the energy balance holds.
	in := 0.02 // 13 dBm incident (very close to the AP)
	d := h.DutyCycle(in, load, p.SleepPowerW())
	if d <= 0 || d >= 1 {
		t.Fatalf("mid-range duty cycle %g", d)
	}
	balance := d*load + (1-d)*p.SleepPowerW()
	if math.Abs(balance-h.HarvestedPowerW(in)) > 1e-12 {
		t.Fatal("duty cycle must satisfy the energy balance")
	}
}

func TestDutyCyclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultHarvester().DutyCycle(1, 0, 0)
}

func TestSustainedBitRate(t *testing.T) {
	h := DefaultHarvester()
	p := DefaultPowerModel()
	// More incident power can only help.
	prev := -1.0
	for _, in := range []float64{1e-6, 1e-4, 1e-3, 1e-2, 1e-1} {
		r := h.SustainedBitRate(in, p, 10e6, 1)
		if r < prev {
			t.Fatalf("sustained rate not monotone at %g W", in)
		}
		if r > 10e6 {
			t.Fatalf("sustained rate %g exceeds burst rate", r)
		}
		prev = r
	}
	// Strong drive sustains the full burst rate.
	if r := h.SustainedBitRate(1, p, 10e6, 1); r != 10e6 {
		t.Fatalf("saturated sustained rate %g", r)
	}
}

func TestTimeToCharge(t *testing.T) {
	h := DefaultHarvester()
	// 100 uF from 1.8 V to 3.3 V at 0 dBm incident.
	tc := h.TimeToCharge(1e-3, 100e-6, 1.8, 3.3)
	if tc <= 0 || math.IsInf(tc, 0) {
		t.Fatalf("charge time %g", tc)
	}
	// Double the capacitance, double the time.
	tc2 := h.TimeToCharge(1e-3, 200e-6, 1.8, 3.3)
	if math.Abs(tc2/tc-2) > 1e-9 {
		t.Fatal("charge time must scale with capacitance")
	}
	// No harvest: infinite.
	if !math.IsInf(h.TimeToCharge(1e-9, 100e-6, 1.8, 3.3), 1) {
		t.Fatal("starved charge time must be +Inf")
	}
}

func TestTimeToChargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultHarvester().TimeToCharge(1, 0, 1, 2)
}
