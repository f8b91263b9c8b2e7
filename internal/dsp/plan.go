package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan caches everything size-dependent about an N-point DFT: the
// bit-reversal swap schedule, per-stage twiddle-factor tables for both
// transform directions, and — for non-power-of-two sizes — the
// Bluestein chirp vectors and pre-transformed convolution kernel. A
// plan is immutable after construction and safe for concurrent use, so
// one shared plan per size serves every goroutine.
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
	blu   *bluesteinPlan // non-power-of-two sizes only
}

// bluesteinPlan holds the size-only precomputation of the chirp-z
// transform: the chirp w[k] = exp(sign*i*pi*k^2/n) and the forward
// transform of the conjugate-chirp convolution kernel, for both signs.
type bluesteinPlan struct {
	m       int        // power-of-two convolution length >= 2n-1
	scale   complex128 // 1/m, the inverse-convolution normalization
	wFwd    []complex128
	wInv    []complex128
	kernFwd []complex128
	kernInv []complex128
	mp      *Plan // radix-2 plan for the length-m convolutions
}

var planCache sync.Map // int -> *Plan

// PlanFFT returns the shared plan for n-point transforms, building and
// caching it on first use. It panics for n < 1.
func PlanFFT(n int) *Plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan)
	}
	p := newPlan(n)
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan)
}

func newPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("dsp: FFT plan size %d, must be >= 1", n))
	}
	p := &Plan{n: n}
	if n&(n-1) == 0 {
		p.initRadix2()
	} else {
		p.blu = newBluesteinPlan(n)
	}
	return p
}

// N returns the transform size the plan was built for.
func (p *Plan) N() int { return p.n }

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

func newBluesteinPlan(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bp := &bluesteinPlan{m: m, scale: complex(1/float64(m), 0), mp: PlanFFT(m)}
	bp.wFwd, bp.kernFwd = bluesteinTables(n, m, -1.0, bp.mp)
	bp.wInv, bp.kernInv = bluesteinTables(n, m, 1.0, bp.mp)
	return bp
}

func bluesteinTables(n, m int, sign float64, mp *Plan) (w, kern []complex128) {
	w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n avoids precision loss for large k.
		k2 := (int64(k) * int64(k)) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(k2)/float64(n)))
	}
	kern = make([]complex128, m)
	for k := 0; k < n; k++ {
		bk := cmplx.Conj(w[k])
		kern[k] = bk
		if k > 0 {
			kern[m-k] = bk
		}
	}
	mp.radix2To(kern, kern, false)
	return w, kern
}

// FFTTo writes the DFT of x into dst and returns dst, reallocating only
// when cap(dst) < len(x). len(x) must equal the plan size. dst may be
// x itself (the transform then runs fully in place) but must not
// otherwise overlap it.
func (p *Plan) FFTTo(dst, x []complex128) []complex128 {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, input length %d", p.n, len(x)))
	}
	dst = GrowComplex(dst, p.n)
	p.transformTo(dst, x, false)
	return dst
}

// IFFTTo writes the inverse DFT of x into dst (scaled by 1/N so that
// IFFTTo following FFTTo round-trips) and returns dst. The aliasing
// rules match FFTTo.
func (p *Plan) IFFTTo(dst, x []complex128) []complex128 {
	if len(x) != p.n {
		panic(fmt.Sprintf("dsp: plan size %d, input length %d", p.n, len(x)))
	}
	dst = GrowComplex(dst, p.n)
	p.transformTo(dst, x, true)
	s := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= s
	}
	return dst
}

// transformTo runs the unscaled transform of x into dst (dst == x
// allowed, partial overlap not).
func (p *Plan) transformTo(dst, x []complex128, inverse bool) {
	if p.blu != nil {
		p.bluesteinTo(dst, x, inverse)
		return
	}
	p.radix2To(dst, x, inverse)
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

// bluesteinTo runs the chirp-z transform through the precomputed chirp
// and kernel. Scratch comes from the arena pool, so steady-state calls
// do not allocate.
func (p *Plan) bluesteinTo(dst, x []complex128, inverse bool) {
	bp := p.blu
	w, kern := bp.wFwd, bp.kernFwd
	if inverse {
		w, kern = bp.wInv, bp.kernInv
	}
	ar := GetArena()
	a := ar.ComplexZeroed(bp.m)
	for k := 0; k < p.n; k++ {
		a[k] = x[k] * w[k]
	}
	bp.mp.radix2To(a, a, false)
	for i := range a {
		a[i] *= kern[i]
	}
	bp.mp.radix2To(a, a, true)
	for k := 0; k < p.n; k++ {
		dst[k] = a[k] * bp.scale * w[k]
	}
	ar.PutComplex(a)
	PutArena(ar)
}
