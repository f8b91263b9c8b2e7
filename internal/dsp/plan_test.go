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

// fftTo and ifftTo run the planned radix-2 transform the correlators
// use, growing dst when its capacity is short and scaling the inverse
// by 1/n, so the DFT properties in these tests are checked on the live
// kernel.
func fftTo(dst, x []complex128) []complex128 { return planTo(dst, x, false) }

func ifftTo(dst, x []complex128) []complex128 {
	dst = planTo(dst, x, true)
	s := complex(1/float64(len(dst)), 0)
	for i := range dst {
		dst[i] *= s
	}
	return dst
}

func planTo(dst, x []complex128, inverse bool) []complex128 {
	if len(x) == 0 {
		return dst[:0]
	}
	dst = GrowComplex(dst, len(x))
	PlanFFT(len(x)).radix2To(dst, x, inverse)
	return dst
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

// TestFFTToMatchesFFT checks that a reused dirty dst and a second pass
// through it reproduce the planned transform into a fresh slice bit for
// bit, in the dst's storage.
func TestFFTToMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 1024} {
		x := randSignal(rng, n)
		want := fftTo(nil, x)
		dst := dirty(n)
		got := fftTo(dst, x)
		if &got[0] != &dst[0] {
			t.Fatalf("n=%d: FFTTo did not write into a capacious dst", n)
		}
		sameBits(t, fmt.Sprintf("n=%d reused dst", n), got, want)
		// Second pass through the same dst must reproduce the result.
		sameBits(t, fmt.Sprintf("n=%d second pass", n), fftTo(dst, x), want)
	}
}

// TestIFFTToMatchesIFFT is TestFFTToMatchesFFT for the inverse
// transform.
func TestIFFTToMatchesIFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{2, 8, 16, 128, 256, 1024} {
		x := randSignal(rng, n)
		want := ifftTo(nil, x)
		dst := dirty(n)
		got := ifftTo(dst, x)
		if &got[0] != &dst[0] {
			t.Fatalf("n=%d: IFFTTo did not write into a capacious dst", n)
		}
		sameBits(t, fmt.Sprintf("n=%d reused dst", n), got, want)
	}
}

func TestFFTToInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{16, 128, 1024} {
		x := randSignal(rng, n)
		want := fftTo(nil, x)
		buf := make([]complex128, n)
		copy(buf, x)
		got := fftTo(buf, buf) // dst == x: fully in-place transform
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d bin %d: in-place FFTTo diverged", n, i)
			}
		}
	}
}

func TestFFTToEmptyAndGrow(t *testing.T) {
	if got := fftTo(nil, nil); len(got) != 0 {
		t.Fatalf("fftTo(nil, nil) length %d", len(got))
	}
	// Undersized dst must grow rather than panic.
	x := randSignal(rand.New(rand.NewSource(14)), 32)
	got := fftTo(make([]complex128, 4), x)
	if len(got) != 32 {
		t.Fatalf("grown dst length %d", len(got))
	}
}

// TestPlanSizeMismatchPanics checks that PlanFFT rejects every size
// that is not a power of two: only the radix-2 transform is
// implemented.
func TestPlanSizeMismatchPanics(t *testing.T) {
	for _, n := range []int{-4, 0, 3, 12, 100, 1000} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("PlanFFT(%d) must panic", n)
				} else if want := fmt.Sprintf("dsp: FFT plan size %d, must be a power of two", n); r != want {
					t.Errorf("PlanFFT(%d) panicked with %v, want %q", n, r, want)
				}
			}()
			PlanFFT(n)
		}()
	}
}

// TestFFTToZeroAlloc pins the plan contract: once a size's plan exists
// and dst has capacity, planned transforms allocate nothing. GC is
// paused so the plan cache's sync.Map cannot be the one allocating.
func TestFFTToZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{64, 1024} {
		x := randSignal(rng, n)
		dst := make([]complex128, n)
		fftTo(dst, x) // warm plan, arena and caches
		if allocs := testing.AllocsPerRun(20, func() {
			fftTo(dst, x)
		}); allocs != 0 {
			t.Errorf("n=%d: FFTTo allocates %.1f/op, want 0", n, allocs)
		}
		ifftTo(dst, x)
		if allocs := testing.AllocsPerRun(20, func() {
			ifftTo(dst, x)
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
	for _, n := range []int{256, 1024} {
		x := randSignal(rng, n)
		want := fftTo(nil, x)
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]complex128, n)
				for it := 0; it < 50; it++ {
					got := fftTo(dst, x)
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
	fftTo(dst, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fftTo(dst, x)
	}
}
