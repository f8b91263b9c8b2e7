package rfmath

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		db = math.Mod(db, 200) // keep within float range
		back := DB(FromDB(db))
		return math.Abs(back-db) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBKnownValues(t *testing.T) {
	approx(t, DB(2), 3.0103, 1e-3, "DB(2)")
	approx(t, DB(10), 10, 1e-12, "DB(10)")
	approx(t, DB(1), 0, 1e-12, "DB(1)")
	approx(t, FromDB(3), 1.9953, 1e-3, "FromDB(3)")
	if !math.IsInf(DB(0), -1) {
		t.Fatalf("DB(0) = %v, want -Inf", DB(0))
	}
}

func TestDBmConversions(t *testing.T) {
	approx(t, DBm(1), 30, 1e-12, "1 W = 30 dBm")
	approx(t, DBm(0.001), 0, 1e-12, "1 mW = 0 dBm")
	approx(t, FromDBm(20), 0.1, 1e-12, "20 dBm = 100 mW")
	approx(t, FromDBm(-30), 1e-6, 1e-15, "-30 dBm = 1 uW")
}

func TestWavelength(t *testing.T) {
	// 24 GHz -> 12.49 mm
	approx(t, Wavelength(24e9), 0.012491, 1e-6, "24 GHz wavelength")
	// 1 GHz -> ~0.3 m
	approx(t, Wavelength(1e9), 0.29979, 1e-4, "1 GHz wavelength")
}

func TestThermalNoise(t *testing.T) {
	// kT at 290K is -174 dBm/Hz.
	approx(t, DBm(ThermalNoisePower(RoomTemperatureK, 1)), -173.98, 0.02, "kT 1 Hz")
	// 1 MHz bandwidth -> -114 dBm.
	approx(t, NoiseFloorDBm(1e6, 0), -113.98, 0.02, "1 MHz floor")
	// Noise figure adds directly.
	approx(t, NoiseFloorDBm(1e6, 5), -108.98, 0.02, "1 MHz floor + 5 dB NF")
}

func TestFSPL(t *testing.T) {
	fsplDB := func(d, f float64) float64 { return DB(FSPL(d, f)) }
	// At 24 GHz, 1 m: 20log10(4*pi*1/0.01249) ~= 60.05 dB.
	approx(t, fsplDB(1, 24e9), 60.05, 0.1, "FSPL 1 m @ 24 GHz")
	// Doubling distance adds 6.02 dB.
	approx(t, fsplDB(2, 24e9)-fsplDB(1, 24e9), 6.0206, 1e-3, "FSPL distance doubling")
	// Doubling frequency adds 6.02 dB.
	approx(t, fsplDB(1, 48e9)-fsplDB(1, 24e9), 6.0206, 1e-3, "FSPL frequency doubling")
}

func TestFSPLPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive distance")
		}
	}()
	FSPL(0, 24e9)
}

func TestQFunction(t *testing.T) {
	approx(t, Q(0), 0.5, 1e-12, "Q(0)")
	approx(t, Q(1), 0.15866, 1e-4, "Q(1)")
	approx(t, Q(3), 0.00135, 1e-5, "Q(3)")
	// Symmetry Q(-x) = 1 - Q(x).
	approx(t, Q(-1.7)+Q(1.7), 1, 1e-12, "Q symmetry")
}

func TestBERKnownPoints(t *testing.T) {
	// BPSK at Eb/N0 = 9.6 dB gives BER ~1e-5.
	ber := BERBPSK(FromDB(9.6))
	if ber < 5e-6 || ber > 2e-5 {
		t.Fatalf("BPSK BER at 9.6 dB = %v, want ~1e-5", ber)
	}
	// QPSK per-bit equals BPSK.
	approx(t, BERQPSK(2.5), BERBPSK(2.5), 1e-15, "QPSK == BPSK per bit")
	// OOK needs 3 dB more than BPSK for the same BER.
	approx(t, BEROOK(2*2.5), BERBPSK(2.5), 1e-12, "OOK 3 dB penalty")
	// 4-QAM equals QPSK.
	approx(t, BERMQAM(4, 3), BERQPSK(3), 1e-12, "4-QAM == QPSK")
}

func TestBEROrdering(t *testing.T) {
	// For a fixed Eb/N0, higher-order modulations are strictly worse.
	for _, ebn0DB := range []float64{4, 8, 12} {
		e := FromDB(ebn0DB)
		b2 := BERBPSK(e)
		b16 := BERMQAM(16, e)
		b64 := BERMQAM(64, e)
		if !(b2 < b16 && b16 < b64) {
			t.Fatalf("at %v dB: BPSK %v, 16QAM %v, 64QAM %v not ordered", ebn0DB, b2, b16, b64)
		}
	}
}

func TestBERMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 20))
		y := math.Abs(math.Mod(b, 20))
		if x > y {
			x, y = y, x
		}
		if y-x < 1e-9 {
			return true
		}
		return BERBPSK(FromDB(y)) <= BERBPSK(FromDB(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBERMPSK(t *testing.T) {
	// 8PSK is worse than QPSK at the same Eb/N0.
	e := FromDB(8)
	if BERMPSK(8, e) <= BERQPSK(e) {
		t.Fatal("8PSK should be worse than QPSK")
	}
	approx(t, BERMPSK(2, e), BERBPSK(e), 1e-15, "MPSK(2) == BPSK")
}

func TestPERFromBER(t *testing.T) {
	approx(t, PERFromBER(0, 1000), 0, 1e-15, "zero BER")
	approx(t, PERFromBER(1e-3, 1), 1e-3, 1e-12, "single bit")
	// Small-ber approximation: PER ~= n*ber.
	approx(t, PERFromBER(1e-9, 1000), 1e-6, 1e-9, "linear regime")
	// Large n saturates to 1.
	if p := PERFromBER(0.01, 100000); p < 0.999999 {
		t.Fatalf("PER should saturate, got %v", p)
	}
	if PERFromBER(0.5, 0) != 0 {
		t.Fatal("zero-length packet must have PER 0")
	}
}

func TestEbN0SNRRoundTrip(t *testing.T) {
	f := func(snrDB float64) bool {
		snr := FromDB(math.Mod(snrDB, 40))
		e := EbN0FromSNR(snr, 10e6, 20e6)
		back := e * 10e6 / 20e6 // SNR = Eb/N0 · R / B
		return math.Abs(DB(back/snr)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
