package dsp

import (
	"fmt"
	"math/rand"
	"testing"
)

func fillLane(b *Batch, l int, vals []complex128) {
	b.SetLaneLen(l, len(vals))
	copy(b.LaneCap(l), vals)
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

// interleave packs the first n samples of every lane of x into one
// buffer, sample i of lane l at buf[i*lanes+l], as radix2Batch takes it.
func interleave(x *Batch, n int) []complex128 {
	lanes := x.Lanes()
	buf := make([]complex128, n*lanes)
	for l := 0; l < lanes; l++ {
		for i, v := range x.Lane(l)[:n] {
			buf[i*lanes+l] = v
		}
	}
	return buf
}

// Every lane of the batched transform must be bit-identical to the
// per-lane planned transform, for both directions and any lane count.
func TestFFTBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 8, 64, 512} {
		for _, lanes := range []int{1, 2, 7, 8, 64} {
			x := NewBatch(lanes, n)
			for l := 0; l < lanes; l++ {
				fillLane(x, l, randComplex(rng, n))
			}
			p := PlanFFT(n)
			for _, inverse := range []bool{false, true} {
				buf := interleave(x, n)
				p.radix2Batch(buf, lanes, inverse)
				want := make([]complex128, n)
				for l := 0; l < lanes; l++ {
					p.radix2To(want, x.Lane(l), inverse)
					for i := range want {
						if got := buf[i*lanes+l]; got != want[i] {
							t.Fatalf("n=%d lanes=%d inv=%v lane=%d idx=%d: %v != %v",
								n, lanes, inverse, l, i, got, want[i])
						}
					}
				}
			}
		}
	}
}

// CrossCorrelateBatch must be bit-identical per lane to serial
// CrossCorrelateTo, across direct-method lanes, FFT-method lanes, mixed
// batches with ragged lane lengths, and lanes too short to correlate.
func TestCrossCorrelateBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{4, 63} {
		ref := randComplex(rng, m)
		kern := NewCorrKernel(ref)
		cases := [][]int{
			{m + 5},                             // single direct lane
			{400, 400, 400},                     // FFT lanes, same size
			{m - 1},                             // too short: empty row
			{m + 2, 400, 130, m - 1, 399, 1200}, // mixed sizes and methods
			{64, 64, 64, 64, 64, 64, 64},
		}
		for ci, ns := range cases {
			stride := 0
			for _, n := range ns {
				if n > stride {
					stride = n
				}
			}
			x := NewBatch(len(ns), stride)
			out := NewBatch(len(ns), stride)
			for l, n := range ns {
				fillLane(x, l, randComplex(rng, n))
			}
			ar := new(Arena)
			kern.CrossCorrelateBatch(out, x, ar)
			for l, n := range ns {
				want := CrossCorrelateTo(nil, x.Lane(l), ref, nil)
				got := out.Lane(l)
				if n < m {
					if len(got) != 0 {
						t.Fatalf("m=%d case=%d lane=%d: want empty, got %d", m, ci, l, len(got))
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("m=%d case=%d lane=%d: len %d != %d", m, ci, l, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("m=%d case=%d lane=%d lag=%d: %v != %v", m, ci, l, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// The batched kernels must allocate nothing in steady state when fed a
// warmed arena and reused batches (mirrors the PR 4 hot-path guards).
func TestBatchKernelsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(13))
	ref := randComplex(rng, 63)
	kern := NewCorrKernel(ref)
	const lanes, n = 16, 400
	x := NewBatch(lanes, n)
	out := NewBatch(lanes, n)
	for l := 0; l < lanes; l++ {
		fillLane(x, l, randComplex(rng, n))
	}
	ar := new(Arena)
	kern.CrossCorrelateBatch(out, x, ar) // warm arena + spectrum cache
	allocs := testing.AllocsPerRun(20, func() {
		kern.CrossCorrelateBatch(out, x, ar)
	})
	if allocs != 0 {
		t.Fatalf("CrossCorrelateBatch allocates %v per run, want 0", allocs)
	}
	// The waveform tier's preamble search: a two-valued reference on
	// the product-table path.
	pre := NewCorrKernel(centredPreamble(63, 1, 1i))
	px, pout := preambleBatch(8, 227)
	pre.CrossCorrelateBatch(pout, px, ar)
	allocs = testing.AllocsPerRun(20, func() {
		pre.CrossCorrelateBatch(pout, px, ar)
	})
	if allocs != 0 {
		t.Fatalf("CrossCorrelateBatch (product table) allocates %v per run, want 0", allocs)
	}
}

func TestBatchReuseShrinksAndGrows(t *testing.T) {
	b := NewBatch(4, 100)
	fillLane(b, 3, randComplex(rand.New(rand.NewSource(1)), 100))
	b.Reset(2, 50)
	if b.Lanes() != 2 || b.Stride() != 50 {
		t.Fatalf("reset shape: %d lanes stride %d", b.Lanes(), b.Stride())
	}
	if len(b.Lane(0)) != 0 || len(b.Lane(1)) != 0 {
		t.Fatalf("reset lanes not empty")
	}
	b.Reset(8, 200)
	b.SetLaneLen(7, 200)
	if len(b.Lane(7)) != 200 {
		t.Fatalf("grown lane length %d", len(b.Lane(7)))
	}
}

func BenchmarkFFTBatch(b *testing.B) {
	for _, lanes := range []int{8, 64} {
		b.Run(fmt.Sprintf("batched-%d", lanes), func(b *testing.B) {
			const n = 512
			rng := rand.New(rand.NewSource(1))
			x := NewBatch(lanes, n)
			for l := 0; l < lanes; l++ {
				fillLane(x, l, randComplex(rng, n))
			}
			buf := interleave(x, n)
			p := PlanFFT(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.radix2Batch(buf, lanes, false)
			}
		})
		b.Run(fmt.Sprintf("serial-%d", lanes), func(b *testing.B) {
			const n = 512
			rng := rand.New(rand.NewSource(1))
			p := PlanFFT(n)
			x := make([][]complex128, lanes)
			for l := range x {
				x[l] = randComplex(rng, n)
			}
			dst := make([]complex128, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := 0; l < lanes; l++ {
					p.radix2To(dst, x[l], false)
				}
			}
		})
	}
}

// AddLane must grow a staged batch without disturbing existing lanes,
// and Restride must repack contents losslessly.
func TestBatchAddLaneAndRestride(t *testing.T) {
	b := &Batch{}
	b.Reset(0, 4)
	for l := 0; l < 5; l++ {
		idx := b.AddLane()
		if idx != l {
			t.Fatalf("AddLane returned %d, want %d", idx, l)
		}
		lane := b.LaneCap(idx)
		for i := range lane {
			lane[i] = complex(float64(l), float64(i))
		}
		b.SetLaneLen(idx, 4)
	}
	check := func(stride int) {
		t.Helper()
		if b.Stride() < stride {
			t.Fatalf("stride %d, want >= %d", b.Stride(), stride)
		}
		for l := 0; l < 5; l++ {
			lane := b.Lane(l)
			if len(lane) != 4 {
				t.Fatalf("lane %d has len %d", l, len(lane))
			}
			for i, v := range lane {
				if v != complex(float64(l), float64(i)) {
					t.Fatalf("lane %d sample %d corrupted: %v", l, i, v)
				}
			}
		}
	}
	check(4)
	b.Restride(9)
	check(9)
	b.Restride(2) // shrink is a no-op
	check(9)
	// A lane added after a grow starts zeroed even over recycled memory.
	idx := b.AddLane()
	for _, v := range b.LaneCap(idx) {
		if v != 0 {
			t.Fatal("fresh lane not zeroed")
		}
	}
}
