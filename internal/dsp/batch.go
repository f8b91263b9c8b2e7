package dsp

// Batch is a structure-of-arrays block of per-tag IQ lanes: every lane
// is a contiguous []complex128 run inside one backing allocation, all
// lanes share a stride (the per-lane capacity), and each lane carries
// its own logical length. The layout exists for the batched transform
// kernels below: a receiver stages N tag waveforms (or N alignment
// hypotheses) into one Batch and sweeps them all through one cached FFT
// plan and one arena pass, instead of N independent walks over the same
// twiddle tables.
//
// A Batch is a scratch container, not a concurrency primitive: like
// Arena it is single-owner, and per-worker code keeps its own. The zero
// Batch is empty and ready for Reset.
//
// DESIGN.md: section 11 (batched demodulation).
type Batch struct {
	stride int
	ns     []int
	data   []complex128
}

// NewBatch returns a batch of `lanes` lanes, each with capacity
// `stride` and length 0.
func NewBatch(lanes, stride int) *Batch {
	b := &Batch{}
	b.Reset(lanes, stride)
	return b
}

// Reset reshapes the batch to `lanes` lanes of capacity `stride`, all
// with length 0. The backing storage is kept when large enough, so a
// reused batch reaches a steady state where Reset allocates nothing.
func (b *Batch) Reset(lanes, stride int) {
	if lanes < 0 || stride < 0 {
		panic("dsp: negative batch shape")
	}
	b.stride = stride
	need := lanes * stride
	if cap(b.data) < need {
		b.data = make([]complex128, need)
	}
	b.data = b.data[:need]
	if cap(b.ns) < lanes {
		b.ns = make([]int, lanes)
	}
	b.ns = b.ns[:lanes]
	for i := range b.ns {
		b.ns[i] = 0
	}
}

// AddLane appends an empty lane of capacity Stride, growing the
// backing geometrically, and returns its index. It lets staged
// producers (the link layer's deferred frame trials) accumulate an
// unknown number of lanes without pre-sizing the batch.
func (b *Batch) AddLane() int {
	l := len(b.ns)
	need := (l + 1) * b.stride
	if cap(b.data) < need {
		grown := make([]complex128, need, 2*need)
		copy(grown, b.data)
		b.data = grown
	}
	b.data = b.data[:need]
	clear(b.data[l*b.stride : need])
	b.ns = append(b.ns, 0)
	return l
}

// Restride grows the per-lane capacity to at least stride, repacking
// existing lane contents. Shrinking is a no-op; lane lengths are
// preserved. Staged producers call this when a longer waveform arrives
// after shorter ones.
func (b *Batch) Restride(stride int) {
	if stride <= b.stride {
		return
	}
	lanes := len(b.ns)
	data := make([]complex128, lanes*stride)
	for l := 0; l < lanes; l++ {
		copy(data[l*stride:], b.data[l*b.stride:l*b.stride+b.ns[l]])
	}
	b.stride = stride
	b.data = data
}

// Lanes returns the number of lanes.
func (b *Batch) Lanes() int { return len(b.ns) }

// Stride returns the per-lane capacity.
func (b *Batch) Stride() int { return b.stride }

// Lane returns lane l at its logical length.
func (b *Batch) Lane(l int) []complex128 {
	return b.data[l*b.stride : l*b.stride+b.ns[l]]
}

// LaneCap returns lane l at full capacity (stride), for staging writes.
// Pair with SetLaneLen to publish how much of it is live.
func (b *Batch) LaneCap(l int) []complex128 {
	return b.data[l*b.stride : (l+1)*b.stride]
}

// SetLaneLen sets lane l's logical length to n (0 <= n <= stride).
func (b *Batch) SetLaneLen(l, n int) {
	if n < 0 || n > b.stride {
		panic("dsp: lane length out of range")
	}
	b.ns[l] = n
}

// radix2Batch applies the plan's radix-2 stages to an index-major
// interleaved buffer holding `lanes` transforms of the plan size:
// sample i of lane l lives at buf[i*lanes+l]. Every lane sees exactly
// the butterfly sequence radix2To runs — same stages, same twiddles,
// same operation order — so each lane's result is bit-identical to a
// per-lane radix2To; the batch just hoists the twiddle walk out of the
// per-lane loop and turns the butterflies into contiguous sweeps.
func (p *Plan) radix2Batch(buf []complex128, lanes int, inverse bool) {
	if lanes == 0 {
		return
	}
	n := p.n
	sw := p.swaps
	for s := 0; s < len(sw); s += 2 {
		i := int(sw[s]) * lanes
		j := int(sw[s+1]) * lanes
		ri := buf[i : i+lanes]
		rj := buf[j : j+lanes : j+lanes]
		for l := range ri {
			ri[l], rj[l] = rj[l], ri[l]
		}
	}
	stages := p.fwd
	if inverse {
		stages = p.inv
	}
	if lanes == 8 {
		// The single-waveform demodulation path batches exactly its
		// sps=8 alignment hypotheses; a fixed-width butterfly gives the
		// compiler constant trip counts and no bounds checks.
		for si, tw := range stages {
			size := 2 << si
			half := size >> 1
			for start := 0; start < n; start += size {
				lo := buf[start*8:]
				hi := buf[(start+half)*8:]
				for k, w := range tw {
					lr := (*[8]complex128)(lo[k*8:])
					hr := (*[8]complex128)(hi[k*8:])
					// Two independent lanes per step: the unroll only
					// widens instruction-level parallelism; each lane's
					// FP order is exactly the serial butterfly's.
					for l := 0; l < 8; l += 2 {
						a0, a1 := lr[l], lr[l+1]
						b0 := hr[l] * w
						b1 := hr[l+1] * w
						lr[l], lr[l+1] = a0+b0, a1+b1
						hr[l], hr[l+1] = a0-b0, a1-b1
					}
				}
			}
		}
		return
	}
	for si, tw := range stages {
		size := 2 << si
		half := size >> 1
		for start := 0; start < n; start += size {
			lo := buf[start*lanes:]
			hi := buf[(start+half)*lanes:]
			for k, w := range tw {
				lr := lo[k*lanes : k*lanes+lanes]
				hr := hi[k*lanes : k*lanes+lanes : k*lanes+lanes]
				for l := range lr {
					a := lr[l]
					b := hr[l] * w
					lr[l] = a + b
					hr[l] = a - b
				}
			}
		}
	}
}

// CrossCorrelateBatch correlates every lane of x against the kernel's
// reference, writing lane l's valid-lag correlation row (length
// len(x.Lane(l)) - m + 1) into lane l of out. Lanes shorter than the
// reference come back with length 0. Each lane's values are
// bit-identical to a per-lane CrossCorrelateTo call: lanes under the
// direct-method threshold run the same direct path, and the rest are
// grouped by FFT size so each group pays one plan walk, one cached
// spectrum fetch and one interleaved arena pass for every lane in it.
// out and x must have the same lane count; out's stride must cover the
// widest lag row.
func (kn *CorrKernel) CrossCorrelateBatch(out, x *Batch, ar *Arena) {
	lanes := x.Lanes()
	if out.Lanes() != lanes {
		panic("dsp: batch lane count mismatch")
	}
	m := len(kn.ref)
	// Classify lanes. Direct-threshold lanes run the exact direct loop
	// immediately; FFT lanes are deferred as (lane, size) pairs so
	// correlateFFT can group them by transform size.
	deferred := ar.Ints(2 * lanes)[:0]
	defer func() { ar.PutInts(deferred[:cap(deferred)]) }()
	for l := 0; l < lanes; l++ {
		n := len(x.Lane(l))
		if m == 0 || n < m {
			out.SetLaneLen(l, 0)
			continue
		}
		out.SetLaneLen(l, n-m+1)
		if n*m <= directMaxWork {
			kn.correlateSmall(out.Lane(l), x.Lane(l))
			continue
		}
		deferred = append(deferred, l, NextPow2(n+m-1))
	}
	kn.correlateFFT(out, x, deferred, ar)
}

// correlateFFT correlates the FFT-path lanes of x listed in deferred,
// as (lane, FFT size) pairs, into the same lanes of out, whose lengths
// are already set: one interleaved sweep per FFT size. Group membership
// is compacted in place (deferred is consumed): each round peels every
// pair matching the first remaining size into the group scratch, then
// recurs on the rest. One demod batch nearly always collapses to a
// single round.
func (kn *CorrKernel) correlateFFT(out, x *Batch, deferred []int, ar *Arena) {
	group := ar.Ints(len(deferred) / 2)[:0]
	for len(deferred) > 0 {
		size := deferred[1]
		group = group[:0]
		rest := deferred[:0]
		for i := 0; i < len(deferred); i += 2 {
			if deferred[i+1] == size {
				group = append(group, deferred[i])
			} else {
				rest = append(rest, deferred[i], deferred[i+1])
			}
		}
		deferred = rest
		for lo := 0; lo < len(group); lo += maxGroupLanes(size) {
			hi := lo + maxGroupLanes(size)
			if hi > len(group) {
				hi = len(group)
			}
			kn.correlateGroup(out, x, group[lo:hi], size, ar)
		}
	}
	ar.PutInts(group[:cap(group)])
}

// maxGroupLanes caps how many lanes one interleaved sweep carries so
// the working set (size × lanes complex samples) stays cache-resident:
// past ~1 MiB the batched stages go memory-bound and lose to per-lane
// transforms. Lane results are independent, so chunking a group changes
// nothing but locality.
func maxGroupLanes(size int) int {
	l := (1 << 20) / (16 * size)
	if l < 4 {
		return 4
	}
	return l
}

// correlateGroup runs the FFT correlation for one same-size lane group:
// zero-padded interleave, one batched forward transform, one spectrum
// multiply, one batched inverse transform, strided lag extraction.
func (kn *CorrKernel) correlateGroup(out, x *Batch, group []int, size int, ar *Arena) {
	m := len(kn.ref)
	p := PlanFFT(size)
	spec := kn.spectrum(size, p)
	L := len(group)
	buf := ar.ComplexZeroed(size * L)
	for gi, lane := range group {
		pos := gi
		for _, v := range x.Lane(lane) {
			buf[pos] = v
			pos += L
		}
	}
	p.radix2Batch(buf, L, false)
	if L == 8 {
		// The single-waveform demod path always groups its sps=8
		// alignment lanes; a fixed-width row drops the bounds checks.
		for i := 0; i < size; i++ {
			s := spec[i]
			row := (*[8]complex128)(buf[i*8:])
			for gi := 0; gi < 8; gi++ {
				row[gi] *= s
			}
		}
	} else {
		for i := 0; i < size; i++ {
			s := spec[i]
			row := buf[i*L : i*L+L]
			for gi := range row {
				row[gi] *= s
			}
		}
	}
	p.radix2Batch(buf, L, true)
	scale := complex(1/float64(size), 0)
	for gi, lane := range group {
		o := out.Lane(lane)
		pos := (m-1)*L + gi
		for k := range o {
			o[k] = buf[pos] * scale
			pos += L
		}
	}
	ar.PutComplex(buf)
}
