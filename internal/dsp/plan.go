package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan caches everything size-dependent about an N-point radix-2 DFT:
// the bit-reversal swap schedule and per-stage twiddle-factor tables
// for both transform directions. A plan is immutable after construction
// and safe for concurrent use, so one shared plan per size serves every
// goroutine.
//
// The twiddle tables replicate the accumulate-and-resync recurrence of
// the original direct transform term for term, so planned transforms
// are bit-for-bit identical to what that transform always produced;
// they just stop paying a cmplx.Exp per rotation per call.
type Plan struct {
	n     int
	swaps []int32        // flattened (i, j) swap pairs, i < j
	fwd   [][]complex128 // per-stage twiddles, forward transform
	inv   [][]complex128 // per-stage twiddles, inverse transform
}

var planCache sync.Map // int -> *Plan

// PlanFFT returns the shared plan for n-point transforms, building and
// caching it on first use. n must be a power of two (every caller sizes
// its transform with NextPow2); it panics for any other n, including
// n < 1.
func PlanFFT(n int) *Plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan)
}

func newPlan(n int) *Plan {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT plan size %d, must be a power of two", n))
	}
	p := &Plan{n: n}
	p.initRadix2()
	return p
}

func (p *Plan) initRadix2() {
	n := p.n
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
		if j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	p.fwd = stageTwiddles(n, -1.0)
	p.inv = stageTwiddles(n, 1.0)
}

// stageTwiddles tabulates, for each butterfly stage, the twiddle used
// at butterfly k. The recurrence — accumulate by a unit rotation,
// resynchronize with an exact cmplx.Exp every 64 steps — is exactly the
// one the direct transform ran inline, preserving its bit pattern.
func stageTwiddles(n int, sign float64) [][]complex128 {
	var stages [][]complex128
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		tw := make([]complex128, half)
		w := complex(1, 0)
		rot := cmplx.Exp(complex(0, step))
		for k := 0; k < half; k++ {
			tw[k] = w
			w *= rot
			if k&63 == 63 {
				w = cmplx.Exp(complex(0, step*float64(k+1)))
			}
		}
		stages = append(stages, tw)
	}
	return stages
}

// radix2To is the planned iterative Cooley-Tukey transform: the
// bit-reversal permutation replays the recorded swap list and each
// butterfly reads its twiddle from the stage table.
func (p *Plan) radix2To(dst, x []complex128, inverse bool) {
	if &dst[0] != &x[0] {
		copy(dst, x)
	}
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		dst[i], dst[j] = dst[j], dst[i]
	}
	stages := p.fwd
	if inverse {
		stages = p.inv
	}
	n := p.n
	for si, tw := range stages {
		size := 2 << si
		half := size >> 1
		for start := 0; start < n; start += size {
			lo := dst[start : start+half : start+half]
			hi := dst[start+half : start+size : start+size]
			for k, w := range tw {
				a := lo[k]
				b := hi[k] * w
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}
