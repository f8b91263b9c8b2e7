package channel

import (
	"math"
	"testing"

	"mmtag/internal/antenna"
	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

const testFreq = 24e9

func testLink(t *testing.T, d float64) *Link {
	t.Helper()
	refl, err := vanatta.New(vanatta.Config{Elements: 8, InsertionLossDB: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	return &Link{
		FreqHz:        testFreq,
		TxPowerW:      rfmath.FromDBm(20),
		APGain:        rfmath.FromDB(20),
		Reflector:     refl,
		DistanceM:     d,
		ModEfficiency: 1,
		NoiseFigureDB: 5,
	}
}

func TestFreeSpaceMatchesRFMath(t *testing.T) {
	fs := FreeSpace{FreqHz: testFreq}
	for _, d := range []float64{0.5, 1, 3, 8} {
		if got, want := fs.Loss(d), rfmath.FSPL(d, testFreq); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("d=%g: %g vs %g", d, got, want)
		}
	}
	if fs.Name() != "free-space" {
		t.Fatal("name")
	}
}

func TestLogDistanceExponent(t *testing.T) {
	ld := NewLogDistance(testFreq, 3)
	// Below the reference: free space.
	if got, want := ld.Loss(0.5), rfmath.FSPL(0.5, testFreq); math.Abs(got-want) > 1e-6*want {
		t.Fatal("below reference must be free space")
	}
	// Beyond: 30 dB/decade.
	slope := 10 * math.Log10(ld.Loss(10)/ld.Loss(1))
	if math.Abs(slope-30) > 1e-6 {
		t.Fatalf("slope %g dB/decade, want 30", slope)
	}
	if ld.Name() != "log-distance-3.0" {
		t.Fatalf("name %q", ld.Name())
	}
}

func TestLinkValidate(t *testing.T) {
	l := testLink(t, 2)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Link){
		func(l *Link) { l.FreqHz = 0 },
		func(l *Link) { l.TxPowerW = 0 },
		func(l *Link) { l.APGain = 0 },
		func(l *Link) { l.Reflector = nil },
		func(l *Link) { l.DistanceM = 0 },
		func(l *Link) { l.ModEfficiency = 0 },
		func(l *Link) { l.ModEfficiency = 1.5 },
	}
	for i, mutate := range bad {
		m := *testLink(t, 2)
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Fatalf("mutation %d must fail validation", i)
		}
		if _, err := m.ReceivedPowerW(); err == nil {
			t.Fatalf("mutation %d: ReceivedPowerW must propagate error", i)
		}
	}
}

func TestLinkMatchesRadarBudget(t *testing.T) {
	l := testLink(t, 3)
	pr, err := l.ReceivedPowerW()
	if err != nil {
		t.Fatal(err)
	}
	tagGain := l.Reflector.MonostaticGain(0)
	// Monostatic radar budget: Pt·Gap²·Gtag²·λ⁴ / ((4π)⁴·d⁴).
	lambda := rfmath.Wavelength(testFreq)
	want := l.TxPowerW * l.APGain * l.APGain * tagGain * tagGain *
		math.Pow(lambda, 4) / (math.Pow(4*math.Pi, 4) * math.Pow(3, 4))
	if math.Abs(rfmath.DB(pr/want)) > 1e-9 {
		t.Fatalf("link budget %g, radar budget %g", pr, want)
	}
}

func TestLinkFortyDBPerDecade(t *testing.T) {
	near, _ := testLink(t, 1).ReceivedPowerW()
	far, _ := testLink(t, 10).ReceivedPowerW()
	slope := rfmath.DB(near / far)
	if math.Abs(slope-40) > 1e-9 {
		t.Fatalf("backscatter slope %g dB/decade, want 40", slope)
	}
}

func TestLinkAngleDependence(t *testing.T) {
	l := testLink(t, 2)
	on, _ := l.ReceivedPowerW()
	l.TagAngleRad = antenna.Deg(40)
	off, _ := l.ReceivedPowerW()
	if off >= on {
		t.Fatal("echo power must drop off the element pattern")
	}
	// But only by the element pattern (cos^2 per pass, squared = cos^4
	// of two passes in power => at 40°: ~ -4.5 dB), not a collapse.
	drop := rfmath.DB(on / off)
	if drop > 10 {
		t.Fatalf("van atta angle drop %g dB too steep", drop)
	}
}

func TestLinkSNRAndEbN0(t *testing.T) {
	l := testLink(t, 2)
	snr, err := l.SNR(10e6)
	if err != nil {
		t.Fatal(err)
	}
	if snr <= 1 {
		t.Fatalf("SNR at 2 m is %g, should be comfortably > 0 dB", rfmath.DB(snr))
	}
	// Wider bandwidth, lower SNR, exactly 3 dB per doubling.
	snr2, _ := l.SNR(20e6)
	if math.Abs(rfmath.DB(snr/snr2)-3.0103) > 1e-6 {
		t.Fatal("SNR must halve when bandwidth doubles")
	}
	// EbN0 equals SNR when bit rate == bandwidth.
	e, _ := l.EbN0(10e6, 10e6)
	if math.Abs(e-snr) > 1e-12*snr {
		t.Fatal("EbN0 at Rb=B must equal SNR")
	}
	if _, err := l.SNR(0); err == nil {
		t.Fatal("zero bandwidth must error")
	}
	if _, err := l.EbN0(0, 1e6); err == nil {
		t.Fatal("zero bit rate must error")
	}
}

func TestLinkModEfficiency(t *testing.T) {
	full := testLink(t, 2)
	half := testLink(t, 2)
	half.ModEfficiency = 0.5
	pf, _ := full.ReceivedPowerW()
	ph, _ := half.ReceivedPowerW()
	if math.Abs(ph/pf-0.5) > 1e-12 {
		t.Fatal("mod efficiency must scale echo power linearly")
	}
}

func TestLinkImplementationLosses(t *testing.T) {
	clean := testLink(t, 2)
	lossy := testLink(t, 2)
	lossy.PolarizationLossDB = 2
	lossy.MiscLossDB = 1
	pc, _ := clean.ReceivedPowerW()
	pl, _ := lossy.ReceivedPowerW()
	if math.Abs(rfmath.DB(pc/pl)-3) > 1e-9 {
		t.Fatal("implementation losses must subtract 3 dB")
	}
}

func TestTagIncidentPower(t *testing.T) {
	l := testLink(t, 2)
	inc, err := l.TagIncidentPowerW()
	if err != nil {
		t.Fatal(err)
	}
	echo, _ := l.ReceivedPowerW()
	// One-way power must greatly exceed the round-trip echo.
	if inc <= echo {
		t.Fatal("incident power must exceed echo power")
	}
	// Slope with distance is 20 dB/decade (one-way).
	incFar, _ := testLink(t, 20).TagIncidentPowerW()
	if math.Abs(rfmath.DB(inc/incFar)-20) > 1e-9 {
		t.Fatal("incident power slope must be 20 dB/decade")
	}
}

func TestLinkSINRWithInterference(t *testing.T) {
	clean := testLink(t, 2)
	noisy := testLink(t, 2)
	// Interference 10x the thermal floor costs ~10.4 dB of SINR.
	noise := rfmath.ThermalNoisePower(rfmath.RoomTemperatureK, 10e6) * rfmath.FromDB(5)
	noisy.InterferenceW = 10 * noise
	sClean, err := clean.SNR(10e6)
	if err != nil {
		t.Fatal(err)
	}
	sNoisy, err := noisy.SNR(10e6)
	if err != nil {
		t.Fatal(err)
	}
	if d := rfmath.DB(sClean / sNoisy); math.Abs(d-rfmath.DB(11)) > 1e-9 {
		t.Fatalf("interference penalty %g dB, want %g", d, rfmath.DB(11))
	}
	// Negative interference rejected.
	bad := testLink(t, 2)
	bad.InterferenceW = -1
	if _, err := bad.SNR(10e6); err == nil {
		t.Fatal("negative interference must error")
	}
}

func TestWallEchoPowerW(t *testing.T) {
	pt := rfmath.FromDBm(20)
	g := rfmath.FromDB(20)
	// Image model: one-way Friis over 2d with the reflection loss.
	want := pt * g * g / rfmath.FSPL(2*1.5, testFreq) * rfmath.FromDB(-3)
	got := WallEchoPowerW(pt, g, testFreq, 1.5, 3)
	if math.Abs(rfmath.DB(got/want)) > 1e-9 {
		t.Fatalf("wall echo %g, want %g", got, want)
	}
	// Stays physical in the near field: echo below TX power even at
	// 10 cm (unlike the point-target radar equation).
	near := WallEchoPowerW(pt, rfmath.FromDB(0), testFreq, 0.1, 0)
	if near >= pt {
		t.Fatalf("near-field wall echo %g exceeds TX power", near)
	}
	// 6 dB per distance doubling (one-way over 2d).
	r := WallEchoPowerW(pt, g, testFreq, 1, 0) / WallEchoPowerW(pt, g, testFreq, 2, 0)
	if math.Abs(rfmath.DB(r)-6.02) > 0.01 {
		t.Fatalf("wall echo slope %g dB per doubling", rfmath.DB(r))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero distance")
		}
	}()
	WallEchoPowerW(pt, g, testFreq, 0, 0)
}

func TestSelfInterference(t *testing.T) {
	tx := rfmath.FromDBm(20)
	si := SelfInterferencePowerW(tx, 30)
	if math.Abs(rfmath.DBm(si)-(-10)) > 1e-9 {
		t.Fatalf("SI power %g dBm, want -10", rfmath.DBm(si))
	}
	// The tag echo at a few metres is far below self-interference —
	// the reason the AP needs a cancellation stage at all.
	echo, _ := testLink(t, 3).ReceivedPowerW()
	if echo >= si {
		t.Fatal("tag echo should be far below self-interference")
	}
}
