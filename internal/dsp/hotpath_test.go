package dsp

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"
)

// --- Resample edge cases ---

// --- Correlation kernel ---

// kernRow correlates x against kn's reference through
// CrossCorrelateBatch on a one-lane batch.
func kernRow(kn *CorrKernel, x []complex128, ar *Arena) []complex128 {
	xb, out := NewBatch(1, len(x)), NewBatch(1, len(x))
	fillLane(xb, 0, x)
	kn.CrossCorrelateBatch(out, xb, ar)
	return out.Lane(0)
}

// TestCorrKernelMatchesCrossCorrelate checks that the cached-kernel
// path reproduces the package-level CrossCorrelateTo bit for bit, fresh
// and through arena scratch, on both the direct and the FFT path.
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
		sameBits(t, fmt.Sprintf("n=%d m=%d kernel", c.n, c.m), kernRow(kn, x, nil), want)
		// Repeat with arena scratch: still bit-identical, and the cached
		// spectrum serves the second kernel call.
		ar := new(Arena)
		dst := dirty(len(want))
		for rep := 0; rep < 2; rep++ {
			sameBits(t, fmt.Sprintf("n=%d m=%d rep %d cached kernel", c.n, c.m, rep), kernRow(kn, x, ar), want)
			got := CrossCorrelateTo(dst, x, ref, ar)
			if &got[0] != &dst[0] {
				t.Fatalf("n=%d m=%d: CrossCorrelateTo did not write into a capacious dst", c.n, c.m)
			}
			sameBits(t, fmt.Sprintf("n=%d m=%d rep %d package-level, arena", c.n, c.m, rep), got, want)
			copy(dst, dirty(len(dst)))
		}
	}
}

func TestCorrKernelDegenerate(t *testing.T) {
	kn := NewCorrKernel(nil)
	if out := kernRow(kn, make([]complex128, 8), nil); len(out) != 0 {
		t.Fatal("empty reference must yield an empty row")
	}
	kn = NewCorrKernel(make([]complex128, 8))
	if out := kernRow(kn, make([]complex128, 4), nil); len(out) != 0 {
		t.Fatal("x shorter than reference must yield an empty row")
	}
}

// --- Zero-allocation contract for CrossCorrelateTo ---

func TestHotKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(28))

	x := randSignal(rng, 2048)

	// FFT correlation with arena scratch.
	ref := randSignal(rng, 31)
	ar := new(Arena)
	cOut2 := make([]complex128, len(x)-len(ref)+1)
	CrossCorrelateTo(cOut2, x, ref, ar)
	if allocs := testing.AllocsPerRun(20, func() {
		CrossCorrelateTo(cOut2, x, ref, ar)
	}); allocs != 0 {
		t.Errorf("CrossCorrelateTo allocates %.1f/op, want 0", allocs)
	}

}

func BenchmarkCrossCorrelateTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randSignal(rng, 4096)
	ref := randSignal(rng, 31)
	ar := new(Arena)
	out := make([]complex128, len(x)-len(ref)+1)
	CrossCorrelateTo(out, x, ref, ar)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossCorrelateTo(out, x, ref, ar)
	}
}
