package ap

import (
	"math"
	"math/cmplx"
	"testing"

	"mmtag/internal/antenna"
	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

func TestNewDefaults(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.Config()
	if cfg.FreqHz != 24e9 || cfg.ADCBits != 12 || cfg.ArrayElements != 16 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{FreqHz: -1},
		{TxPowerW: -1},
		{ArrayElements: -1},
		{ADCBits: 1},
		{ADCBits: 30},
		{IsolationDB: -5},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Fatalf("config %d must error", i)
		}
	}
}

func TestSteeringChangesGain(t *testing.T) {
	a, _ := New(Config{})
	target := antenna.Deg(20)
	a.Steer(target)
	on := a.GainToward(target)
	off := a.GainToward(antenna.Deg(-20))
	if on <= off*4 {
		t.Fatalf("steered gain %g should dominate off-beam %g", on, off)
	}
	if len(a.Beams(antenna.Deg(60))) < 5 {
		t.Fatal("discovery codebook too small")
	}
}

func TestNoiseAndResidualSI(t *testing.T) {
	a, _ := New(Config{})
	// Noise at 10 MHz, NF 5: -104 + 5 = -99 dBm.
	np := rfmath.DBm(a.NoisePowerW(10e6))
	if math.Abs(np-(-98.98)) > 0.1 {
		t.Fatalf("noise power %g dBm", np)
	}
	// Residual SI: 20 dBm - 30 - 40 = -50 dBm.
	si := rfmath.DBm(a.ResidualSelfInterferenceW())
	if math.Abs(si-(-50)) > 0.1 {
		t.Fatalf("residual SI %g dBm", si)
	}
	if a.DynamicRangeDB() != 6.02*12 {
		t.Fatal("dynamic range")
	}
	if a.MinDetectableRatioDB() != a.DynamicRangeDB() {
		t.Fatal("min detectable ratio")
	}
}

func TestUplinkBudgetIntegration(t *testing.T) {
	a, _ := New(Config{})
	refl, _ := vanatta.New(vanatta.Config{Elements: 8})
	a.Steer(0)
	link := a.UplinkBudget(refl, 3, 0, 0, 1)
	snr, err := link.SNRdB(10e6)
	if err != nil {
		t.Fatal(err)
	}
	if snr < 0 || snr > 80 {
		t.Fatalf("implausible uplink SNR %g dB at 3 m", snr)
	}
}

func TestQuantize(t *testing.T) {
	a, _ := New(Config{ADCBits: 4})
	x := []complex128{complex(0.5, -0.25), complex(2.0, -3.0)}
	y := a.QuantizeTo(nil, x, 1.0)
	// Clipping.
	if real(y[1]) != 1.0 || imag(y[1]) != -1.0 {
		t.Fatalf("clip failed: %v", y[1])
	}
	// 4-bit quantization: steps of 1/8.
	if math.Abs(real(y[0])-0.5) > 1.0/16 {
		t.Fatalf("quantized value %v too far from input", y[0])
	}
	if math.Mod(real(y[0])*8+1e-9, 1) > 2e-9 {
		t.Fatalf("value %v not on the 4-bit grid", real(y[0]))
	}
}

func TestQuantizeFloor(t *testing.T) {
	// A signal far below one LSB vanishes: the reason analog SI
	// cancellation must happen before the ADC.
	a, _ := New(Config{ADCBits: 8})
	tiny := []complex128{complex(1e-6, 0)}
	y := a.QuantizeTo(nil, tiny, 1.0)
	if real(y[0]) != 0 {
		t.Fatalf("sub-LSB signal should quantize to zero, got %v", y[0])
	}
}

func TestQuantizePanics(t *testing.T) {
	a, _ := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.QuantizeTo(nil, nil, 0)
}

func TestFitGainOffset(t *testing.T) {
	p := []complex128{1, -1, 1, 1, -1, 1, -1, -1}
	aTrue := complex(0.003, -0.004)
	bTrue := complex(0.9, 0.2)
	r := make([]complex128, len(p))
	for i := range p {
		r[i] = aTrue*p[i] + bTrue
	}
	a, b, err := fitGainOffset(r, p)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(a-aTrue) > 1e-12 || cmplx.Abs(b-bTrue) > 1e-12 {
		t.Fatalf("fit (%v, %v), want (%v, %v)", a, b, aTrue, bTrue)
	}
}

func TestFitGainOffsetDegenerate(t *testing.T) {
	// A constant preamble cannot separate gain from offset.
	p := []complex128{1, 1, 1, 1}
	r := []complex128{2, 2, 2, 2}
	if _, _, err := fitGainOffset(r, p); err == nil {
		t.Fatal("constant preamble must be degenerate")
	}
	if _, _, err := fitGainOffset(nil, nil); err == nil {
		t.Fatal("empty fit must error")
	}
}
