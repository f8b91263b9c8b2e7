package dsp

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"testing"
)

// --- FIR: *To equivalence, overlap-save vs direct ---

// TestFilterToMatchesFilter checks that a reused dirty dst reproduces
// the fresh-output FilterTo(nil, x) bit for bit on both the direct-form
// and the overlap-save path.
func TestFilterToMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randSignal(rng, 300)
	h := make([]float64, 65)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	for _, f := range []*FIR{MovingAverage(9), NewFIR(h)} {
		want := f.FilterTo(nil, x)
		dst := dirty(len(x))
		got := f.FilterTo(dst, x)
		if &got[0] != &dst[0] {
			t.Fatalf("%d taps: FilterTo did not write into a capacious dst", f.Len())
		}
		sameBits(t, fmt.Sprintf("%d taps reused dst", f.Len()), got, want)
	}
}

// TestFilterFFTMatchesDirect drives the overlap-save path directly
// against the O(n·k) reference across tap counts and lengths straddling
// the crossover, including non-multiple-of-block lengths.
func TestFilterFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, taps := range []int{64, 65, 101, 257} {
		h := make([]float64, taps)
		for i := range h {
			h[i] = rng.NormFloat64() / float64(taps)
		}
		f := NewFIR(h)
		for _, n := range []int{64, 100, 511, 1000, 4096} {
			x := randSignal(rng, n)
			direct := make([]complex128, n)
			f.filterDirect(direct, x)
			fast := make([]complex128, n)
			f.filterFFT(fast, x)
			// Scale-free tolerance: the ISSUE's 1e-12 bound on unit-order
			// signals, applied relative to the signal magnitude.
			var ref float64
			for _, v := range x {
				if a := cmplx.Abs(v); a > ref {
					ref = a
				}
			}
			for i := range direct {
				if e := cmplx.Abs(fast[i] - direct[i]); e > 1e-12*ref {
					t.Fatalf("taps=%d n=%d sample %d: overlap-save error %g", taps, n, i, e)
				}
			}
		}
	}
}

func TestFilterDispatchCrossover(t *testing.T) {
	// Below the crossover (short taps or short input) FilterTo must remain
	// bit-identical to the direct form — the golden tables depend on it.
	rng := rand.New(rand.NewSource(23))
	shortFIR := MovingAverage(63)
	x := randSignal(rng, 4096)
	direct := make([]complex128, len(x))
	shortFIR.filterDirect(direct, x)
	got := shortFIR.FilterTo(nil, x)
	for i := range direct {
		if got[i] != direct[i] {
			t.Fatalf("63-tap FilterTo not bit-identical to direct form at %d", i)
		}
	}
	longFIR := MovingAverage(64)
	shortX := randSignal(rng, 63)
	direct = make([]complex128, len(shortX))
	longFIR.filterDirect(direct, shortX)
	got = longFIR.FilterTo(nil, shortX)
	for i := range direct {
		if got[i] != direct[i] {
			t.Fatalf("short-input FilterTo not bit-identical to direct form at %d", i)
		}
	}
}

func TestFIRTapOwnership(t *testing.T) {
	src := []float64{1, 2, 3}
	f := NewFIR(src)
	src[0] = 99 // caller's slice must not be retained
	if f.taps[0] != 1 {
		t.Fatal("NewFIR retained the caller's slice")
	}
	cp := f.Taps()
	cp[1] = 99 // returned copy must not alias the filter
	if f.taps[1] != 2 {
		t.Fatal("Taps returned an aliasing slice")
	}
	cl := f.Clone()
	cl.taps[2] = 99
	if f.taps[2] != 3 {
		t.Fatal("Clone shares taps with the original")
	}
}

// --- Resample edge cases ---

func TestResampleEmptyInput(t *testing.T) {
	for _, lm := range [][2]int{{1, 1}, {3, 2}, {1, 4}} {
		r, err := NewResampler(lm[0], lm[1])
		if err != nil {
			t.Fatal(err)
		}
		if out := r.ResampleTo(nil, nil); len(out) != 0 {
			t.Fatalf("L/M=%d/%d: empty input produced %d samples", lm[0], lm[1], len(out))
		}
		if out := r.ResampleTo(make([]complex128, 8), nil); len(out) != 0 {
			t.Fatalf("L/M=%d/%d: ResampleTo(nil input) length %d", lm[0], lm[1], len(out))
		}
	}
}

func TestResampleRateOneCopies(t *testing.T) {
	r, _ := NewResampler(7, 7) // reduces to 1/1
	x := randSignal(rand.New(rand.NewSource(24)), 50)
	out := r.ResampleTo(nil, x)
	for i := range x {
		if out[i] != x[i] {
			t.Fatalf("identity resample changed sample %d", i)
		}
	}
	out[0] = 42 // output must be a copy, not an alias
	if x[0] == 42 {
		t.Fatal("identity resample aliased its input")
	}
}

func TestResampleNonIntegerRounding(t *testing.T) {
	// Output length is ceil(n*L/M); check lengths that do not divide
	// evenly, and that the produced slice agrees with OutputLen.
	cases := []struct{ l, m, n, want int }{
		{3, 2, 101, 152}, // 151.5 -> 152
		{1, 4, 10, 3},    // 2.5 -> 3
		{2, 3, 7, 5},     // 4.67 -> 5
		{5, 3, 1, 2},     // 1.67 -> 2
	}
	for _, c := range cases {
		r, err := NewResampler(c.l, c.m)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.OutputLen(c.n); got != c.want {
			t.Fatalf("L/M=%d/%d OutputLen(%d) = %d, want %d", c.l, c.m, c.n, got, c.want)
		}
		x := randSignal(rand.New(rand.NewSource(25)), c.n)
		if got := len(r.ResampleTo(nil, x)); got != c.want {
			t.Fatalf("L/M=%d/%d len(ResampleTo(nil, x[:%d])) = %d, want %d", c.l, c.m, c.n, got, c.want)
		}
	}
}

// TestResampleToMatchesResample checks that a reused dirty dst
// reproduces the fresh-output ResampleTo(nil, x) bit for bit, for a
// rational ratio and for the identity copy.
func TestResampleToMatchesResample(t *testing.T) {
	x := randSignal(rand.New(rand.NewSource(26)), 400)
	for _, lm := range [][2]int{{3, 2}, {1, 1}} {
		r, _ := NewResampler(lm[0], lm[1])
		want := r.ResampleTo(nil, x)
		dst := dirty(r.OutputLen(len(x)))
		got := r.ResampleTo(dst, x)
		if &got[0] != &dst[0] {
			t.Fatalf("L/M=%d/%d: ResampleTo did not write into a capacious dst", lm[0], lm[1])
		}
		sameBits(t, fmt.Sprintf("L/M=%d/%d reused dst", lm[0], lm[1]), got, want)
	}
}

// --- Correlation kernel ---

// TestCorrKernelMatchesCrossCorrelate checks that the cached-kernel
// path reproduces the package-level CrossCorrelateTo bit for bit, fresh
// and through arena scratch with a reused dirty dst, on both the direct
// and the FFT path.
func TestCorrKernelMatchesCrossCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, c := range []struct{ n, m int }{
		{100, 16},  // direct path (n*m below the FFT threshold)
		{2000, 31}, // FFT path
		{5000, 64}, // FFT path, larger
	} {
		x := randSignal(rng, c.n)
		ref := randSignal(rng, c.m)
		want := CrossCorrelateTo(nil, x, ref, nil)
		kn := NewCorrKernel(ref)
		sameBits(t, fmt.Sprintf("n=%d m=%d kernel", c.n, c.m), kn.CrossCorrelateTo(nil, x, nil), want)
		// Repeat with arena scratch and a reused dst: still bit-identical,
		// and the cached spectrum serves the second kernel call.
		ar := NewArena()
		dst := dirty(len(want))
		for rep := 0; rep < 2; rep++ {
			got := kn.CrossCorrelateTo(dst, x, ar)
			if &got[0] != &dst[0] {
				t.Fatalf("n=%d m=%d: kernel did not write into a capacious dst", c.n, c.m)
			}
			sameBits(t, fmt.Sprintf("n=%d m=%d rep %d cached kernel", c.n, c.m, rep), got, want)
			copy(dst, dirty(len(dst)))
			got = CrossCorrelateTo(dst, x, ref, ar)
			sameBits(t, fmt.Sprintf("n=%d m=%d rep %d package-level, arena", c.n, c.m, rep), got, want)
			copy(dst, dirty(len(dst)))
		}
	}
}

func TestCorrKernelDegenerate(t *testing.T) {
	kn := NewCorrKernel(nil)
	if out := kn.CrossCorrelateTo(nil, make([]complex128, 8), nil); out != nil {
		t.Fatal("empty reference must yield nil")
	}
	kn = NewCorrKernel(make([]complex128, 8))
	if out := kn.CrossCorrelateTo(nil, make([]complex128, 4), nil); out != nil {
		t.Fatal("x shorter than reference must yield nil")
	}
}

// --- Zero-allocation contracts for the *To kernels ---

func TestHotKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(28))

	// Long-tap FIR through the overlap-save path.
	h := make([]float64, 65)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	fir := NewFIR(h)
	x := randSignal(rng, 2048)
	out := make([]complex128, len(x))
	fir.FilterTo(out, x) // warm spectrum cache and arena pool
	if allocs := testing.AllocsPerRun(20, func() {
		fir.FilterTo(out, x)
	}); allocs != 0 {
		t.Errorf("FilterTo (overlap-save) allocates %.1f/op, want 0", allocs)
	}

	// Short-tap direct path.
	short := MovingAverage(15)
	short.FilterTo(out, x)
	if allocs := testing.AllocsPerRun(20, func() {
		short.FilterTo(out, x)
	}); allocs != 0 {
		t.Errorf("FilterTo (direct) allocates %.1f/op, want 0", allocs)
	}

	// Resampler.
	r, _ := NewResampler(3, 2)
	rOut := make([]complex128, r.OutputLen(len(x)))
	r.ResampleTo(rOut, x)
	if allocs := testing.AllocsPerRun(20, func() {
		r.ResampleTo(rOut, x)
	}); allocs != 0 {
		t.Errorf("ResampleTo allocates %.1f/op, want 0", allocs)
	}

	// FFT correlation with arena scratch and a cached kernel.
	ref := randSignal(rng, 31)
	kn := NewCorrKernel(ref)
	ar := NewArena()
	cOut := make([]complex128, len(x)-len(ref)+1)
	kn.CrossCorrelateTo(cOut, x, ar)
	if allocs := testing.AllocsPerRun(20, func() {
		kn.CrossCorrelateTo(cOut, x, ar)
	}); allocs != 0 {
		t.Errorf("CorrKernel.CrossCorrelateTo allocates %.1f/op, want 0", allocs)
	}
	cOut2 := make([]complex128, len(cOut))
	CrossCorrelateTo(cOut2, x, ref, ar)
	if allocs := testing.AllocsPerRun(20, func() {
		CrossCorrelateTo(cOut2, x, ref, ar)
	}); allocs != 0 {
		t.Errorf("CrossCorrelateTo allocates %.1f/op, want 0", allocs)
	}

	// Normalized preamble peak with arena scratch.
	NormalizedPeak(x, ref, ar)
	if allocs := testing.AllocsPerRun(20, func() {
		NormalizedPeak(x, ref, ar)
	}); allocs != 0 {
		t.Errorf("NormalizedPeak allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkFilterToOverlapSave(b *testing.B) {
	h := make([]float64, 129)
	rng := rand.New(rand.NewSource(1))
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	f := NewFIR(h)
	x := randSignal(rng, 4096)
	out := make([]complex128, len(x))
	f.FilterTo(out, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FilterTo(out, x)
	}
}

func BenchmarkCrossCorrelateTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 4096)
	ref := randSignal(rng, 31)
	kn := NewCorrKernel(ref)
	ar := NewArena()
	out := make([]complex128, len(x)-len(ref)+1)
	kn.CrossCorrelateTo(out, x, ar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.CrossCorrelateTo(out, x, ar)
	}
}
