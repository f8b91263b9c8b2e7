package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
)

// dirty returns an n-sample buffer of NaNs: a kernel that reads or
// accumulates into its dst instead of overwriting it cannot reproduce a
// fresh-output result from it.
func dirty(n int) []complex128 {
	d := make([]complex128, n)
	for i := range d {
		d[i] = complex(math.NaN(), math.NaN())
	}
	return d
}

// sameBits fails the test unless got and want have equal length and
// identical values.
func sameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFFTToMatchesFFT checks that a reused dirty dst, a second pass
// through it, and the plan's own FFTTo all reproduce the fresh-output
// FFTTo(nil, x) bit for bit, in the dst's storage.
func TestFFTToMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Power-of-two (radix-2 path) and awkward (Bluestein path) sizes.
	for _, n := range []int{1, 2, 3, 5, 8, 12, 17, 64, 100, 127, 128, 1000, 1024} {
		x := randSignal(rng, n)
		want := FFTTo(nil, x)
		dst := dirty(n)
		got := FFTTo(dst, x)
		if &got[0] != &dst[0] {
			t.Fatalf("n=%d: FFTTo did not write into a capacious dst", n)
		}
		sameBits(t, fmt.Sprintf("n=%d reused dst", n), got, want)
		// Second pass through the same dst must reproduce the result.
		sameBits(t, fmt.Sprintf("n=%d second pass", n), FFTTo(dst, x), want)
		sameBits(t, fmt.Sprintf("n=%d plan path", n), PlanFFT(n).FFTTo(dirty(n), x), want)
	}
}

// TestIFFTToMatchesIFFT is TestFFTToMatchesFFT for the inverse
// transform.
func TestIFFTToMatchesIFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 7, 16, 100, 256, 1000} {
		x := randSignal(rng, n)
		want := IFFTTo(nil, x)
		dst := dirty(n)
		got := IFFTTo(dst, x)
		if &got[0] != &dst[0] {
			t.Fatalf("n=%d: IFFTTo did not write into a capacious dst", n)
		}
		sameBits(t, fmt.Sprintf("n=%d reused dst", n), got, want)
		sameBits(t, fmt.Sprintf("n=%d plan path", n), PlanFFT(n).IFFTTo(dirty(n), x), want)
	}
}

func TestFFTToInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{16, 100, 1024} {
		x := randSignal(rng, n)
		want := FFTTo(nil, x)
		buf := make([]complex128, n)
		copy(buf, x)
		got := FFTTo(buf, buf) // dst == x: fully in-place transform
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d bin %d: in-place FFTTo diverged", n, i)
			}
		}
	}
}

func TestFFTToEmptyAndGrow(t *testing.T) {
	if got := FFTTo(nil, nil); len(got) != 0 {
		t.Fatalf("FFTTo(nil, nil) length %d", len(got))
	}
	// Undersized dst must grow rather than panic.
	x := randSignal(rand.New(rand.NewSource(14)), 32)
	got := FFTTo(make([]complex128, 4), x)
	if len(got) != 32 {
		t.Fatalf("grown dst length %d", len(got))
	}
}

func TestPlanSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFTTo with wrong input length must panic")
		}
	}()
	PlanFFT(8).FFTTo(nil, make([]complex128, 7))
}

// TestFFTToZeroAlloc pins the tentpole contract: once a size's plan
// exists and dst has capacity, planned transforms allocate nothing. The
// Bluestein path borrows scratch from the pooled arenas, so GC is
// paused to keep sync.Pool from shedding its caches mid-measurement.
func TestFFTToZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{64, 1024, 100, 1000} {
		x := randSignal(rng, n)
		dst := make([]complex128, n)
		FFTTo(dst, x) // warm plan, arena and caches
		if allocs := testing.AllocsPerRun(20, func() {
			FFTTo(dst, x)
		}); allocs != 0 {
			t.Errorf("n=%d: FFTTo allocates %.1f/op, want 0", n, allocs)
		}
		IFFTTo(dst, x)
		if allocs := testing.AllocsPerRun(20, func() {
			IFFTTo(dst, x)
		}); allocs != 0 {
			t.Errorf("n=%d: IFFTTo allocates %.1f/op, want 0", n, allocs)
		}
	}
}

// TestPlanConcurrent exercises one shared plan from many goroutines —
// plans are immutable after construction, so every worker must see the
// same bits.
func TestPlanConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{256, 1000} {
		x := randSignal(rng, n)
		want := FFTTo(nil, x)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]complex128, n)
				for it := 0; it < 50; it++ {
					got := FFTTo(dst, x)
					for i := range want {
						if got[i] != want[i] {
							select {
							case errs <- errAt(n, i):
							default:
							}
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

type planErr struct{ n, bin int }

func (e planErr) Error() string { return "concurrent FFTTo diverged" }

func errAt(n, bin int) error { return planErr{n, bin} }

func BenchmarkFFTTo1024(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 1024)
	dst := make([]complex128, 1024)
	FFTTo(dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFTTo(dst, x)
	}
}

func BenchmarkFFTToBluestein1000(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(1)), 1000)
	dst := make([]complex128, 1000)
	FFTTo(dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFTTo(dst, x)
	}
}
