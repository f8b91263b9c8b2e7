package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// CrossCorrelateTo writes the full linear cross-correlation of x with
// the reference ref into dst:
//
//	r[k] = sum_n x[n+k] * conj(ref[n]),  k = 0 .. len(x)-len(ref)
//
// (valid lags only: the reference fully overlaps x). dst grows only
// when its capacity is short and must not overlap x. It returns nil when
// ref is longer than x or either is empty. Work large enough to pay for
// it runs as FFT fast correlation with scratch (the reference spectrum
// included) borrowed from ar; a nil ar allocates the scratch fresh, and
// with an arena and a capacious dst a call is allocation-free in steady
// state.
func CrossCorrelateTo(dst, x, ref []complex128, ar *Arena) []complex128 {
	n, m := len(x), len(ref)
	if m == 0 || n < m {
		return nil
	}
	out := GrowComplex(dst, n-m+1)
	if n*m <= directMaxWork {
		correlateDirect(out, x, ref)
		return out
	}
	// FFT method: correlation is convolution with the conjugate-reversed
	// reference.
	size := NextPow2(n + m - 1)
	p := PlanFFT(size)
	spec := refSpectrum(ar.ComplexZeroed(size), ref, p)
	fx := ar.ComplexZeroed(size)
	copy(fx, x)
	p.radix2To(fx, fx, false)
	for i := range fx {
		fx[i] *= spec[i]
	}
	p.radix2To(fx, fx, true)
	scale := complex(1/float64(size), 0)
	for k := range out {
		out[k] = fx[k+m-1] * scale
	}
	ar.PutComplex(fx)
	ar.PutComplex(spec)
	return out
}

// CorrKernel caches the forward-transformed, conjugate-reversed spectrum
// of a fixed reference sequence, so repeated correlations against the
// same reference (a receiver's preamble search) pay one forward and one
// inverse FFT per call instead of two forward and one inverse. A
// reference with few distinct values (a binary preamble has two) also
// gets a product table for work under the FFT threshold; see
// correlateTable. Safe for concurrent use; results are bit-identical to
// CrossCorrelateTo.
type CorrKernel struct {
	ref []complex128
	// The product table: vals[:nvals] are the reference's distinct
	// conjugated values and sel[i] is tap i's index into them. nvals
	// is 0 when the reference does not fit the table. Fixed arrays
	// keep the table inside the kernel's one allocation.
	nvals int
	vals  [maxTableVals]complex128
	sel   [maxTableTaps]uint8
	bound peakBound // OffsetImmunePeak's reference-side terms

	mu   sync.Mutex
	spec map[int][]complex128 // FFT size -> reference spectrum
}

const (
	// maxTableVals is the most distinct reference values the product
	// table takes. Each one costs a product row per call, so a
	// reference with many values (a random one) is faster on the MAC
	// loop.
	maxTableVals = 4
	// maxTableTaps and tableStackLen size the table and
	// correlateTable's stack scratch (tap offsets and product rows).
	// No reference longer than 128 taps reaches the direct path
	// (n >= m and n*m <= directMaxWork), and the waveform tier's rows are 2 of
	// 227 samples.
	maxTableTaps  = 128
	tableStackLen = 1024
	// directMaxWork is the direct-form threshold: a lane of n samples
	// against an m-tap reference is correlated by direct sums when
	// n*m <= directMaxWork and through the FFT otherwise. Every
	// correlation entry point splits lanes here, so the fused preamble
	// search sums exactly the lags CrossCorrelateTo would.
	directMaxWork = 1 << 14
)

// NewCorrKernel copies ref into a reusable correlation kernel.
func NewCorrKernel(ref []complex128) *CorrKernel {
	r := make([]complex128, len(ref))
	copy(r, ref)
	kn := &CorrKernel{ref: r, spec: make(map[int][]complex128)}
	kn.buildTable()
	kn.boundTerms()
	return kn
}

// buildTable fills the product table. Values are told apart by the bits
// of their conjugates, so every table product is the exact product the
// MAC loop forms (-0 and +0 stay apart). It leaves nvals at 0 when the
// reference has more than maxTableVals distinct values or more than
// maxTableTaps taps.
func (kn *CorrKernel) buildTable() {
	if len(kn.ref) > maxTableTaps {
		return
	}
	nv := 0
	for i, r := range kn.ref {
		c := cmplx.Conj(r)
		v := 0
		for v < nv && !sameComplexBits(kn.vals[v], c) {
			v++
		}
		if v == nv {
			if nv == maxTableVals {
				return
			}
			kn.vals[v] = c
			nv++
		}
		kn.sel[i] = uint8(v)
	}
	kn.nvals = nv
}

func sameComplexBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// correlateDirect is the direct-form correlation for problems under the
// FFT threshold: out[k] = sum_i x[k+i] * conj(ref[i]) for every k in
// out, summed in ascending i. It is the package-level path, the
// kernel's path for references with many distinct values, and the
// oracle the product table is tested against.
func correlateDirect(out, x, ref []complex128) {
	for k := range out {
		var acc complex128
		for i, r := range ref {
			acc += x[k+i] * cmplx.Conj(r)
		}
		out[k] = acc
	}
}

// correlateSmall is the kernel's path under the FFT threshold: the
// product table when the reference has one and it fits the stack, the
// MAC loop otherwise.
func (kn *CorrKernel) correlateSmall(out, x []complex128) {
	if kn.nvals == 0 || kn.nvals*len(x) > tableStackLen {
		correlateDirect(out, x, kn.ref)
		return
	}
	kn.correlateTable(out, x)
}

// correlateTable computes correlateDirect's output without its
// multiplies. Every term x[j]*conj(ref[i]) is x[j] times one of the
// kernel's few distinct values, so it forms the product row
// rows[v][j] = x[j]*vals[v] once per value, then sums each lag's terms
// out of the rows (sumTaps). The stored products are the same rounded
// values the MAC loop adds (Go does not fuse a multiply with the
// following add on amd64) and each lag's addition order is the same, so
// the output is bit-identical to correlateDirect's; only which payload
// a NaN lag carries may differ, since Go leaves that to the compiler's
// operand order. The table and the tap offsets live on the stack
// (nvals*len(x) <= tableStackLen, len(ref) <= maxTableTaps), so the
// path never allocates.
func (kn *CorrKernel) correlateTable(out, x []complex128) {
	var rowBuf [tableStackLen]complex128
	var offBuf [maxTableTaps]int
	rows, offs := rowBuf[:kn.nvals*len(x)], offBuf[:len(kn.ref)]
	kn.fillRows(rows, offs, x)
	sumTaps(out, rows, offs)
}

// sumTaps writes out[k] = the sum over i of rows[offs[i]+k], four lags
// at a time, each lag in ascending tap order from a zero accumulator.
// Given a prefix of a reference's offsets it forms every lag's partial
// sum over those taps: the value a full sum reaches after them.
func sumTaps(out, rows []complex128, offs []int) {
	k := 0
	for ; k+4 <= len(out); k += 4 {
		var a0, a1, a2, a3 complex128
		for _, o := range offs {
			r := (*[4]complex128)(rows[o+k : o+k+4])
			a0 += r[0]
			a1 += r[1]
			a2 += r[2]
			a3 += r[3]
		}
		o4 := (*[4]complex128)(out[k:])
		o4[0], o4[1], o4[2], o4[3] = a0, a1, a2, a3
	}
	for ; k < len(out); k++ {
		var acc complex128
		for _, o := range offs {
			acc += rows[o+k]
		}
		out[k] = acc
	}
}

// fillRows writes the product rows rows[v*n+j] = x[j]*vals[v] for the
// table's nvals values (len(rows) = nvals*n) and the tap offsets
// offs[i] = sel[i]*n + i (len(offs) = len(ref)): tap i of lag k reads
// rows[offs[i]+k], its value's row shifted by the tap index.
func (kn *CorrKernel) fillRows(rows []complex128, offs []int, x []complex128) {
	n := len(x)
	for v, c := range kn.vals[:kn.nvals] {
		row := rows[v*n : v*n+n]
		for j, xv := range x {
			row[j] = xv * c
		}
	}
	for i, s := range kn.sel[:len(kn.ref)] {
		offs[i] = int(s)*n + i
	}
}

// refSpectrum fills the zeroed buffer fr with the forward transform of
// the conjugate-reversed reference and returns it; len(fr) is the plan
// size.
func refSpectrum(fr, ref []complex128, p *Plan) []complex128 {
	m := len(ref)
	for i := 0; i < m; i++ {
		fr[i] = cmplx.Conj(ref[m-1-i])
	}
	p.radix2To(fr, fr, false)
	return fr
}

// spectrum returns the reference spectrum at the given FFT size,
// computing and caching it on first use per size. Cached slices are
// never mutated after publication, so callers may read them after the
// lock is released.
func (kn *CorrKernel) spectrum(size int, p *Plan) []complex128 {
	kn.mu.Lock()
	defer kn.mu.Unlock()
	if s, ok := kn.spec[size]; ok {
		return s
	}
	fr := refSpectrum(make([]complex128, size), kn.ref, p)
	kn.spec[size] = fr
	return fr
}
