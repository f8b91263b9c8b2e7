package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"testing"
	"testing/quick"

	"mmtag/internal/fastrand"
)

// power returns the mean squared magnitude of x.
func power(x []complex128) float64 {
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s / float64(len(x))
}

func TestAWGNPowerAndReproducibility(t *testing.T) {
	n := 200000
	x := make([]complex128, n)
	AWGN(rand.New(rand.NewSource(1)), x, 4)
	p := power(x)
	if math.Abs(p-4) > 0.1 {
		t.Fatalf("noise power %g, want 4", p)
	}
	// Same seed, same noise.
	y := make([]complex128, 16)
	z := make([]complex128, 16)
	AWGN(rand.New(rand.NewSource(7)), y, 1)
	AWGN(rand.New(rand.NewSource(7)), z, 1)
	for i := range y {
		if y[i] != z[i] {
			t.Fatal("AWGN must be reproducible under a fixed seed")
		}
	}
	// Zero power adds nothing.
	w := []complex128{1, 2}
	AWGN(rand.New(rand.NewSource(1)), w, 0)
	if w[0] != 1 || w[1] != 2 {
		t.Fatal("zero noise power must be a no-op")
	}
}

func TestAWGNPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AWGN(rand.New(rand.NewSource(1)), make([]complex128, 1), -1)
}

// AWGN accepts exactly the two stream-identical generators; any other
// RNG type is a programming error.
func TestAWGNPanicsOnOtherGenerator(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	type wrapped struct{ *rand.Rand }
	AWGN(wrapped{rand.New(rand.NewSource(1))}, make([]complex128, 1), 1)
}

// A *fastrand.Rand made for one AWGN call stays on the caller's stack:
// the kernel never calls a method through the interface, so passing the
// generator does not move its register to the heap.
func TestAWGNKeepsGeneratorOnStack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x := make([]complex128, 64)
	if allocs := testing.AllocsPerRun(20, func() {
		AWGN(fastrand.New(3), x, 0.5)
	}); allocs != 0 {
		t.Errorf("AWGN with a fresh generator allocates %.1f/op, want 0", allocs)
	}
}

func TestRicianTaps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	taps, err := RicianTaps(rng, 10, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(taps) != 5 {
		t.Fatalf("tap count %d, want 5", len(taps))
	}
	if taps[0].DelaySamples != 0 || taps[0].Gain != 1 {
		t.Fatal("first tap must be the unit LOS tap")
	}
	for _, tp := range taps[1:] {
		if tp.DelaySamples < 1 || tp.DelaySamples > 8 {
			t.Fatalf("scattered delay %d outside [1,8]", tp.DelaySamples)
		}
	}
	// Average scattered power over many draws approaches 1/K.
	sum := 0.0
	const draws = 2000
	for i := 0; i < draws; i++ {
		tt, _ := RicianTaps(rng, 10, 4, 8)
		for _, tp := range tt[1:] {
			sum += real(tp.Gain)*real(tp.Gain) + imag(tp.Gain)*imag(tp.Gain)
		}
	}
	avg := sum / draws
	if math.Abs(avg-0.1) > 0.02 {
		t.Fatalf("mean scattered power %g, want 0.1", avg)
	}
}

func TestRicianTapsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := RicianTaps(rng, 0, 4, 8); err == nil {
		t.Fatal("zero K must error")
	}
	if _, err := RicianTaps(rng, 10, -1, 8); err == nil {
		t.Fatal("negative taps must error")
	}
	if _, err := RicianTaps(rng, 10, 2, 0); err == nil {
		t.Fatal("zero max delay must error")
	}
	// LOS-only profile.
	taps, err := RicianTaps(rng, 10, 0, 8)
	if err != nil || len(taps) != 1 {
		t.Fatalf("LOS-only profile: %v, %v", taps, err)
	}
}

func TestApplyTapsIdentityAndEcho(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	y := ApplyTapsTo(nil, x, []Tap{{0, 1}})
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("unit tap must be identity")
		}
	}
	// A half-amplitude echo at delay 2.
	y = ApplyTapsTo(nil, x, []Tap{{0, 1}, {2, 0.5}})
	want := []complex128{1, 2, 3.5, 5}
	for i := range want {
		if cmplx.Abs(y[i]-want[i]) > 1e-15 {
			t.Fatalf("echo output %v, want %v", y, want)
		}
	}
}

func TestApplyTapsToZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(float64(i%7), -float64(i%3))
	}
	taps := []Tap{{0, 1}, {3, 0.5i}, {11, -0.25}}
	out := make([]complex128, len(x))
	ApplyTapsTo(out, x, taps)
	if allocs := testing.AllocsPerRun(20, func() {
		ApplyTapsTo(out, x, taps)
	}); allocs != 0 {
		t.Errorf("ApplyTapsTo allocates %.1f/op, want 0", allocs)
	}
}

func TestAWGNSNRConsistency(t *testing.T) {
	// End-to-end consistency: a unit-power tone plus AWGN at power 1/snr
	// measures back the requested SNR from the noise actually added.
	f := func(snrDBRaw uint8) bool {
		snrDB := float64(snrDBRaw%20) + 5
		rng := rand.New(rand.NewSource(int64(snrDBRaw)))
		n := 8192
		x := make([]complex128, n)
		for i := range x {
			x[i] = cmplx.Exp(complex(0, 2*math.Pi*64*float64(i)/float64(n)))
		}
		clean := append([]complex128(nil), x...)
		snr := math.Pow(10, snrDB/10)
		AWGN(rng, x, 1/snr)
		for i := range x {
			x[i] -= clean[i]
		}
		got := 10 * math.Log10(power(clean)/power(x))
		return math.Abs(got-snrDB) < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// AWGN on a *fastrand.Rand (the fused body) must add bit-identical
// noise to AWGN on a *rand.Rand (the reference loop) for identically
// seeded generators — same draws, same order, including the NormSlow
// rejection path (exercised by the large sample count).
func TestAWGNFusedMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 42, -9} {
		ref := rand.New(rand.NewSource(seed))
		fast := fastrand.New(seed)
		a := make([]complex128, 40000)
		b := make([]complex128, 40000)
		for i := range a {
			v := complex(float64(i%17)-8, float64(i%5)-2)
			a[i], b[i] = v, v
		}
		AWGN(ref, a, 0.25)
		AWGN(fast, b, 0.25)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: sample %d differs: %v != %v", seed, i, b[i], a[i])
			}
		}
		if x, y := ref.Int63(), fast.Int63(); x != y {
			t.Fatalf("seed %d: streams desynchronized (%d vs %d)", seed, x, y)
		}
	}
}
