package dsp

import (
	"math/bits"
	"sync"
)

// Arena is a reusable scratch-buffer allocator for DSP hot paths. Buffers
// are handed out by Complex/Float/Ints/Bytes and handed back by the
// matching Put method; in steady state every borrow is served from a
// free list and the hot path allocates nothing. Buffers come back with
// undefined contents — callers that need zeros clear them (the Zeroed
// variants do it for you).
//
// An Arena is NOT safe for concurrent use. Per-worker code (one shard of
// an internal/par grid, one goroutine of a pipeline) owns its own arena,
// which keeps results byte-identical at any parallelism level: an arena
// only recycles memory, never state. Code without a natural per-worker
// home borrows a pooled arena via GetArena/PutArena.
//
// A nil *Arena is valid: every borrow allocates fresh and every Put is a
// no-op, so optional-scratch APIs degrade gracefully.
type Arena struct {
	// Free lists bucketed by capacity: bucket k holds buffers with
	// cap >= 1<<k. Fixed-size arrays keep the zero Arena ready to use.
	cpx   [maxBucket][][]complex128
	f64   [maxBucket][][]float64
	ints  [maxBucket][][]int
	bytes [maxBucket][][]byte
	// corr holds OffsetImmunePeak's correlation rows, so the search
	// borrows no pool of its own.
	corr Batch
}

const maxBucket = 48 // caps beyond 2^47 elements are not poolable

// bucketFor returns the free-list index whose buffers can serve a
// request for n elements: buffers in bucket k have cap >= 1<<k and
// 1<<bucketFor(n) >= n.
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Complex borrows a []complex128 of length n with undefined contents.
func (a *Arena) Complex(n int) []complex128 {
	if a == nil {
		return make([]complex128, n)
	}
	b := bucketFor(n)
	if b >= maxBucket {
		return make([]complex128, n)
	}
	if l := len(a.cpx[b]); l > 0 {
		buf := a.cpx[b][l-1]
		a.cpx[b] = a.cpx[b][:l-1]
		return buf[:n]
	}
	return make([]complex128, n, 1<<b)
}

// ComplexZeroed borrows a zeroed []complex128 of length n.
func (a *Arena) ComplexZeroed(n int) []complex128 {
	buf := a.Complex(n)
	clear(buf)
	return buf
}

// PutComplex returns a buffer borrowed with Complex. Putting foreign
// slices is allowed (they join the free list by capacity); putting nil
// is a no-op.
func (a *Arena) PutComplex(buf []complex128) {
	if a == nil || cap(buf) == 0 {
		return
	}
	if b := homeBucket(cap(buf)); b >= 0 {
		a.cpx[b] = append(a.cpx[b], buf[:0])
	}
}

// Float borrows a []float64 of length n with undefined contents.
func (a *Arena) Float(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	b := bucketFor(n)
	if b >= maxBucket {
		return make([]float64, n)
	}
	if l := len(a.f64[b]); l > 0 {
		buf := a.f64[b][l-1]
		a.f64[b] = a.f64[b][:l-1]
		return buf[:n]
	}
	return make([]float64, n, 1<<b)
}

// PutFloat returns a buffer borrowed with Float.
func (a *Arena) PutFloat(buf []float64) {
	if a == nil || cap(buf) == 0 {
		return
	}
	if b := homeBucket(cap(buf)); b >= 0 {
		a.f64[b] = append(a.f64[b], buf[:0])
	}
}

// Ints borrows a []int of length n with undefined contents.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	b := bucketFor(n)
	if b >= maxBucket {
		return make([]int, n)
	}
	if l := len(a.ints[b]); l > 0 {
		buf := a.ints[b][l-1]
		a.ints[b] = a.ints[b][:l-1]
		return buf[:n]
	}
	return make([]int, n, 1<<b)
}

// PutInts returns a buffer borrowed with Ints.
func (a *Arena) PutInts(buf []int) {
	if a == nil || cap(buf) == 0 {
		return
	}
	if b := homeBucket(cap(buf)); b >= 0 {
		a.ints[b] = append(a.ints[b], buf[:0])
	}
}

// Bytes borrows a []byte of length n with undefined contents.
func (a *Arena) Bytes(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	b := bucketFor(n)
	if b >= maxBucket {
		return make([]byte, n)
	}
	if l := len(a.bytes[b]); l > 0 {
		buf := a.bytes[b][l-1]
		a.bytes[b] = a.bytes[b][:l-1]
		return buf[:n]
	}
	return make([]byte, n, 1<<b)
}

// PutBytes returns a buffer borrowed with Bytes.
func (a *Arena) PutBytes(buf []byte) {
	if a == nil || cap(buf) == 0 {
		return
	}
	if b := homeBucket(cap(buf)); b >= 0 {
		a.bytes[b] = append(a.bytes[b], buf[:0])
	}
}

// corrRows returns the arena's correlation-row batch (a fresh one for
// a nil arena).
func (a *Arena) corrRows() *Batch {
	if a == nil {
		return new(Batch)
	}
	return &a.corr
}

// homeBucket returns the free-list index a buffer of capacity c belongs
// to (the largest k with 1<<k <= c), or -1 when it is not poolable. Any
// buffer in bucket k therefore has cap >= 1<<k, which is what bucketFor
// relies on.
func homeBucket(c int) int {
	b := bits.Len(uint(c)) - 1
	if b >= maxBucket {
		return -1
	}
	return b
}

// arenaPool recycles arenas across goroutines for call sites without a
// per-worker arena of their own.
var arenaPool = sync.Pool{New: func() interface{} { return new(Arena) }}

// GetArena borrows a pooled arena. Pair with PutArena.
func GetArena() *Arena { return arenaPool.Get().(*Arena) }

// PutArena returns a pooled arena. The arena must no longer be
// referenced; its buffers are recycled into future GetArena calls.
func PutArena(a *Arena) {
	if a != nil {
		arenaPool.Put(a)
	}
}

// GrowComplex returns a slice of length n backed by dst's storage when
// its capacity suffices, allocating otherwise. Existing contents are
// not preserved — it sizes pure-output buffers for the *To kernels.
func GrowComplex(dst []complex128, n int) []complex128 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]complex128, n)
}
