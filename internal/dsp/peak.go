package dsp

import "math"

// The offset-immune preamble search: correlation and peak scoring fused
// into one pass that abandons every lag whose score provably cannot
// beat the best seen so far. DESIGN.md: section 11 (early-abandoning
// preamble search).

// Abandon checkpoints: a lag's partial sum over its first abandonA,
// then abandonB taps is tested against the running threshold before
// the rest of its taps are summed.
const (
	abandonA = 8
	abandonB = 16
)

// peakBound holds the reference-side terms of the early-abandon bound,
// computed once per kernel (see boundTerms). ok is false when the bound
// is not used: a reference of at most abandonA taps, or one whose
// energy lies outside the range where the absolute rounding margin
// dominates every underflow.
type peakBound struct {
	ok     bool
	refE   float64       // Energy(ref), the score normaliser's reference half
	head   [2]complex128 // sum of conj(ref) over the first abandonA, abandonB taps
	tailE  [2]float64    // reference energy from tap abandonA, abandonB on
	refAbs float64       // |sum of conj(ref)|, not exactly 0 after float centring
}

// boundTerms fills kn.bound from the reference.
func (kn *CorrKernel) boundTerms() {
	b := &kn.bound
	b.refE = Energy(kn.ref)
	var all complex128
	for i, r := range kn.ref {
		c := complex(real(r), -imag(r))
		all += c
		for ci, j := range [2]int{abandonA, abandonB} {
			if i < j {
				b.head[ci] += c
			} else {
				b.tailE[ci] += real(r)*real(r) + imag(r)*imag(r)
			}
		}
	}
	b.refAbs = math.Sqrt(real(all)*real(all) + imag(all)*imag(all))
	b.ok = len(kn.ref) > abandonA && b.refE >= 1e-100 && b.refE <= 1e100
}

// OffsetImmunePeak searches every lane of x for the preamble and
// returns the lane, lag and score of the best peak. The lanes are a
// receiver's sub-symbol alignment hypotheses; each is correlated
// against the kernel's reference and lag k of a lane scores
//
//	|c[k]| / sqrt(varE[k] * Energy(ref)),  varE[k] = window energy - |window sum|²/m
//
// the window's own variance standing in for its energy, so a constant
// offset on the lane (uncancelled self-interference) neither moves the
// peak nor deflates the score when the reference is zero-mean. Lags
// whose window has varE <= 1e-30 are skipped, and the first lane, and
// in it the first lag, with the highest score wins. It returns
// (-1, -1, 0) when nothing scores above 0, including when the reference
// is empty or all zero and when every lane is shorter than it.
//
// The result is exactly the unpruned search's, bit for bit: each lane
// is searched with the best score of the lanes before it as its floor
// (see lanePeak), so a lag is abandoned only once a rigorous upper
// bound on its score falls below a score already found.
//
// Lanes under the direct-form threshold (len*m <= directMaxWork) on the
// product-table path sum each surviving lag from zero in ascending tap
// order out of the same product rows correlateTable uses. The other
// lanes are correlated first, as CrossCorrelateBatch does (the FFT ones
// grouped by transform size), and scored without pruning. Scratch comes
// from ar (nil allocates it fresh); with an arena the call is
// allocation-free in steady state.
func (kn *CorrKernel) OffsetImmunePeak(x *Batch, ar *Arena) (lane, lag int, score float64) {
	lane, lag = -1, -1
	m := len(kn.ref)
	if m == 0 || kn.bound.refE == 0 {
		return lane, lag, 0
	}
	lanes := x.Lanes()
	var corr *Batch // correlation rows of the lanes the scan cannot sum itself
	deferred := ar.Ints(2 * lanes)[:0]
	for l := 0; l < lanes; l++ {
		n := len(x.Lane(l))
		if n < m || n*m <= directMaxWork && kn.nvals > 0 {
			continue
		}
		if corr == nil {
			corr = ar.corrRows()
			corr.Reset(lanes, x.Stride())
		}
		corr.SetLaneLen(l, n-m+1)
		if n*m <= directMaxWork {
			correlateDirect(corr.Lane(l), x.Lane(l), kn.ref)
		} else {
			deferred = append(deferred, l, NextPow2(n+m-1))
		}
	}
	if corr != nil {
		kn.correlateFFT(corr, x, deferred, ar)
	}
	ar.PutInts(deferred[:cap(deferred)])
	for l := 0; l < lanes; l++ {
		xl := x.Lane(l)
		if len(xl) < m {
			continue
		}
		var row []complex128
		if corr != nil && len(corr.Lane(l)) > 0 {
			row = corr.Lane(l)
		}
		if k, s := kn.lanePeak(xl, row, score, ar); s > score {
			lane, lag, score = l, k, s
		}
	}
	return lane, lag, score
}

// lanePeak is OffsetImmunePeak on one lane x (len(x) >= m), searched
// against a floor (>= 0): a lag is abandoned as soon as a rigorous
// upper bound on its score falls below max(floor, best score so far).
// The contract: whenever the unpruned search's best score exceeds
// floor, the result is exactly that search's (lag, score), bit for bit;
// otherwise it is some result with score <= floor. corr is x's
// correlation row, or nil on the product-table path, where the scan
// sums the lags itself and abandons the ones that cannot win.
func (kn *CorrKernel) lanePeak(x, corr []complex128, floor float64, ar *Arena) (lag int, score float64) {
	n, m := len(x), len(kn.ref)
	b := &kn.bound
	// Sliding window sum and energy via prefix sums. The two energy
	// adds stay separate: the reference grouping is (p + rr) + ii.
	psBuf, peBuf := ar.Complex(n+1), ar.Float(n+1)
	w := peakWindows{ps: psBuf[: n+1 : n+1], pe: peBuf[: n+1 : n+1], m: m, invM: 1 / float64(m)}
	ps, pe := w.ps, w.pe
	ps[0], pe[0] = 0, 0
	var runS complex128
	runE := 0.0
	for i, v := range x {
		runS += v
		runE += real(v) * real(v)
		runE += imag(v) * imag(v)
		ps[i+1] = runS
		pe[i+1] = runE
	}
	// The absolute rounding margin of a direct sum, for every lag at
	// once: pe[n] bounds the energy of any window.
	w.absErr = 1e-9 * math.Sqrt(pe[n]*b.refE)
	lags := n - m + 1
	var rows, part []complex128
	var offs []int
	var lsq []float64
	j0 := 0 // taps part already holds
	if corr == nil {
		rows = ar.Complex(kn.nvals * n)
		offs = ar.Ints(m)
		kn.fillRows(rows, offs, x)
		// Every lag's sum over its first abandonA taps, four lags at a
		// time: the accumulator a surviving lag continues from.
		j0 = min(abandonA, m)
		part = ar.Complex(lags)
		sumTaps(part, rows, offs[:j0])
		if b.ok {
			// Every lag's squared bound at the first checkpoint.
			lsq = ar.Float(lags)
			w.boundSq(lsq, b, 0, 0, part)
		}
	}
	fm := float64(m)
	psm, pem := ps[m:m+lags], pe[m:m+lags]
	lag, score = -1, 0.0
	// A lag is abandoned once its squared bound falls below
	// t²·vr·(1-2e-6), t = max(floor, score): the bound below
	// t·sqrt(vr)·(1-1e-6), compared squared.
	tK := 0.0
	if floor > 0 {
		tK = floor * floor * (1 - 2e-6)
	}
	// thresh underestimates score² by a relative 1e-9 — vastly more
	// than the few-ulp rounding of the squared-domain test below, so the
	// cheap reject can never discard a lag the exact test would accept.
	thresh := 0.0
	for k := range psm {
		wSum := psm[k] - ps[k]
		wE := pem[k] - pe[k]
		varE := wE - (real(wSum)*real(wSum)+imag(wSum)*imag(wSum))/fm
		if varE <= 1e-30 {
			continue
		}
		vr := varE * b.refE
		var c complex128
		if corr != nil {
			c = corr[k]
		} else {
			thr2 := tK * vr
			if lsq != nil && lsq[k] < thr2 {
				continue
			}
			acc, i := part[k], j0
			if lsq != nil && abandonB < m {
				for ; i < abandonB; i++ {
					acc += rows[offs[i]+k]
				}
				var l2 [1]float64
				if w.boundSq(l2[:], b, 1, k, []complex128{acc}); l2[0] < thr2 {
					continue
				}
			}
			for ; i < m; i++ {
				acc += rows[offs[i]+k]
			}
			c = acc
		}
		cr, ci := real(c), imag(c)
		if cr*cr+ci*ci <= thresh*vr {
			continue
		}
		s := math.Hypot(cr, ci) / math.Sqrt(vr)
		if s > score {
			lag, score = k, s
			thresh = score * score * (1 - 1e-9)
			if score > floor {
				tK = score * score * (1 - 2e-6)
			}
		}
	}
	ar.PutFloat(lsq)
	ar.PutComplex(part)
	ar.PutComplex(rows)
	ar.PutInts(offs)
	ar.PutFloat(peBuf)
	ar.PutComplex(psBuf)
	return lag, score
}

// peakWindows is one lane's prefix sums, ps[i] = x[0]+...+x[i-1] and
// pe[i] the energy of x[:i], with the bound's lane-wide terms.
type peakWindows struct {
	ps     []complex128
	pe     []float64
	m      int
	invM   float64
	absErr float64 // the direct sum's rounding margin
}

// boundSq writes into dst[i] the square of a rigorous upper bound,
// margins included, on |c| of lag k0+i at checkpoint cp (abandonA or
// abandonB taps), given accs[i], that lag's partial sum over those taps:
//
//	|c| <= |acc - mu·head| + sqrt(C·tailE) + |mu|·refAbs
//
// with mu the window mean (a real scaling of the window sum) and C the
// centred energy of the window's remaining samples, from the prefix
// sums plus a slack of 1e-9 of the prefix energy for their rounding.
func (w *peakWindows) boundSq(dst []float64, b *peakBound, cp, k0 int, accs []complex128) {
	j := abandonA
	if cp == 1 {
		j = abandonB
	}
	h, tailE, fm := b.head[cp], b.tailE[cp], float64(w.m-j)
	for i, acc := range accs[:len(dst)] {
		k := k0 + i
		sHi, eHi := w.ps[k+w.m], w.pe[k+w.m]
		wSum := sHi - w.ps[k]
		mr, mi := real(wSum)*w.invM, imag(wSum)*w.invM
		hr := real(acc) - (mr*real(h) - mi*imag(h))
		hi := imag(acc) - (mr*imag(h) + mi*real(h))
		sS := sHi - w.ps[k+j]
		cE := eHi - w.pe[k+j] - 2*(mr*real(sS)+mi*imag(sS)) + fm*(mr*mr+mi*mi) + 1e-9*eHi
		l := (math.Sqrt(hr*hr+hi*hi)+math.Sqrt(cE*tailE)+(math.Abs(mr)+math.Abs(mi))*b.refAbs)*(1+1e-6) + w.absErr
		dst[i] = l * l
	}
}
