package dsp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullPeak is the unpruned scorer OffsetImmunePeak is held to: the whole
// correlation row from CrossCorrelateTo, then every lag scored as
// |c| / sqrt(varE * Energy(ref)), the first strict maximum winning.
func fullPeak(kn *CorrKernel, x []complex128) (int, float64) {
	ref := kn.ref
	m := len(ref)
	if m == 0 || len(x) < m {
		return -1, 0
	}
	refE := Energy(ref)
	if refE == 0 {
		return -1, 0
	}
	corr := CrossCorrelateTo(nil, x, kn.ref, nil)
	prefSum := make([]complex128, len(x)+1)
	prefE := make([]float64, len(x)+1)
	for i, v := range x {
		prefSum[i+1] = prefSum[i] + v
		prefE[i+1] = prefE[i] + real(v)*real(v) + imag(v)*imag(v)
	}
	bestLag, bestScore := -1, 0.0
	for k, c := range corr {
		wSum := prefSum[k+m] - prefSum[k]
		wE := prefE[k+m] - prefE[k]
		varE := wE - (real(wSum)*real(wSum)+imag(wSum)*imag(wSum))/float64(m)
		if varE <= 1e-30 {
			continue
		}
		s := math.Hypot(real(c), imag(c)) / math.Sqrt(varE*refE)
		if s > bestScore {
			bestLag, bestScore = k, s
		}
	}
	return bestLag, bestScore
}

// bestPeak is the unpruned search over lanes: each lane's fullPeak,
// the first lane with the highest score winning.
func bestPeak(kn *CorrKernel, lanes [][]complex128) (lane, lag int, score float64) {
	lane, lag = -1, -1
	for l, x := range lanes {
		if k, s := fullPeak(kn, x); s > score {
			lane, lag, score = l, k, s
		}
	}
	return lane, lag, score
}

// lanesBatch stages lanes into a batch, one each.
func lanesBatch(lanes ...[]complex128) *Batch {
	stride := 0
	for _, x := range lanes {
		stride = max(stride, len(x))
	}
	b := NewBatch(len(lanes), stride)
	for l, x := range lanes {
		fillLane(b, l, x)
	}
	return b
}

// lanePeakOf runs lanePeak on one lane at floor, with the correlation
// row OffsetImmunePeak would hand it: none on the product-table path
// under the direct-form threshold, the full row otherwise.
func lanePeakOf(kn *CorrKernel, x []complex128, floor float64, ar *Arena) (int, float64) {
	var row []complex128
	if m := len(kn.ref); kn.nvals == 0 || len(x)*m > directMaxWork {
		row = CrossCorrelateTo(nil, x, kn.ref, nil)
	}
	return kn.lanePeak(x, row, floor, ar)
}

// checkLanePeak holds one lanePeak call on x to the floor contract: the
// unpruned result bit for bit when its score beats floor, some score
// <= floor otherwise.
func checkLanePeak(t testing.TB, what string, kn *CorrKernel, floor float64, ar *Arena, x []complex128) {
	t.Helper()
	wantLag, want := fullPeak(kn, x)
	lag, score := lanePeakOf(kn, x, floor, ar)
	if want > floor {
		if lag != wantLag || math.Float64bits(score) != math.Float64bits(want) {
			t.Fatalf("%s, floor %v: got (%d, %v), want (%d, %v)", what, floor, lag, score, wantLag, want)
		}
	} else if !(score <= floor) {
		t.Fatalf("%s, floor %v: got (%d, %v) above the floor; unpruned (%d, %v)",
			what, floor, lag, score, wantLag, want)
	}
}

// checkPeak holds one OffsetImmunePeak call over lanes to the unpruned
// search, bit for bit.
func checkPeak(t testing.TB, what string, kn *CorrKernel, ar *Arena, lanes ...[]complex128) {
	t.Helper()
	wantLane, wantLag, want := bestPeak(kn, lanes)
	lane, lag, score := kn.OffsetImmunePeak(lanesBatch(lanes...), ar)
	if lane != wantLane || lag != wantLag || math.Float64bits(score) != math.Float64bits(want) {
		t.Fatalf("%s: got (%d, %d, %v), want (%d, %d, %v)", what, lane, lag, score, wantLane, wantLag, want)
	}
}

// checkLanePeakFloors runs checkLanePeak at floors around the unpruned
// score: zero, well below, one ulp either side, exactly at it, and
// above.
func checkLanePeakFloors(t testing.TB, what string, kn *CorrKernel, ar *Arena, x []complex128) {
	t.Helper()
	_, want := fullPeak(kn, x)
	for _, f := range []float64{0, want * 0.5, want * (1 - 1e-7), math.Nextafter(want, 0),
		want, math.Nextafter(want, 2), want * 1.01, 1, 2, math.Inf(1)} {
		checkLanePeak(t, what, kn, f, ar, x)
	}
}

// peakLane is one integrate-and-dump lane: data symbols drawn from
// {p0, p1} with the preamble at each of at (scaled by amps), all
// times amp, plus a static offset dc and complex Gaussian noise of
// standard deviation sigma.
func peakLane(rng *rand.Rand, n int, p0, p1 complex128, at []int, amps []float64,
	amp float64, dc complex128, sigma float64) []complex128 {
	pts := preamblePoints(63, p0, p1)
	x := make([]complex128, n)
	for i := range x {
		v := p0
		if rng.Intn(2) == 1 {
			v = p1
		}
		x[i] = v
	}
	for c, a := range at {
		for i, v := range pts {
			if a+i < n {
				x[a+i] = v * complex(amps[c], 0)
			}
		}
	}
	for i := range x {
		x[i] = x[i]*complex(amp, 0) + dc + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return x
}

// The one-lane search must honour its floor contract, and
// OffsetImmunePeak match, the full-correlation scorer on every lane shape the receiver meets and
// the edge cases the bound has to survive: DC offsets up to 1e6× the
// signal, one huge sample ahead of a tiny window, signed zeros, ±Inf
// and NaN, all-zero and constant lanes, n == m, lanes on the FFT path,
// references without a product table, and winners that come late
// behind a near miss (the case a looser-than-rigorous bound gets
// wrong).
func TestOffsetImmunePeakMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type refCase struct {
		name   string
		p0, p1 complex128
		ref    []complex128
	}
	refs := []refCase{
		{name: "QPSK", p0: 1, p1: 1i},
		{name: "BPSK", p0: 1, p1: -1},
		{name: "OOK", p0: 0.05, p1: 1},
		{name: "QAM-ish", p0: 0.3 - 0.9i, p1: -0.7 + 0.2i},
	}
	for i := range refs {
		refs[i].ref = centredPreamble(63, refs[i].p0, refs[i].p1)
	}
	// A reference with more than four distinct values has no product
	// table, so every lane is correlated in full and scored unpruned.
	refs = append(refs, refCase{name: "random", p0: 1, p1: 1i, ref: randSignal(rng, 63)})
	for _, rc := range refs {
		kn := NewCorrKernel(rc.ref)
		if got := kn.nvals != 0; got != (rc.name != "random") {
			t.Fatalf("%s: table path %v", rc.name, got)
		}
		ar := new(Arena)
		lane := func(n int, at []int, amps []float64, amp float64, dc complex128, sigma float64) []complex128 {
			return peakLane(rng, n, rc.p0, rc.p1, at, amps, amp, dc, sigma)
		}
		lanes := map[string][]complex128{
			"tier-a at lag 0":      lane(227, []int{0}, []float64{1}, 1, 0.4-0.2i, 0.03),
			"late winner":          lane(227, []int{5, 140}, []float64{0.9, 1}, 1, 0.1i, 0.001),
			"near-miss then exact": lane(227, []int{20, 90}, []float64{1, 1}, 1, 0.7, 0),
			"low SNR":              lane(227, []int{50}, []float64{1}, 1, 0.2, 1.5),
			"noise only":           lane(200, nil, nil, 1, 0, 1),
			"DC 1e3":               lane(227, []int{30}, []float64{1}, 1, 1e3+2e3i, 0.01),
			"DC 1e6":               lane(227, []int{30}, []float64{1}, 1, 1e6-1e6i, 0.01),
			"DC 1e6 low SNR":       lane(227, []int{30}, []float64{1}, 1, -1e6, 0.8),
			"n == m":               lane(63, []int{0}, []float64{1}, 1, 0.5, 0.05),
			"n == m+1":             lane(64, []int{1}, []float64{1}, 1, 0.5, 0.05),
			"FFT path":             lane(400, []int{250}, []float64{1}, 1, 0.3, 0.05),
			"FFT path, late":       lane(700, []int{10, 600}, []float64{0.95, 1}, 1, 0.3, 0.001),
			"tiny amplitude":       lane(227, []int{70}, []float64{1}, 1e-12, 1e-12, 1e-14),
			"all zero":             make([]complex128, 150),
			"constant":             lane(150, nil, nil, 0, 0.3+0.7i, 0),
		}
		huge := lane(227, []int{100}, []float64{1}, 1e-3, 0, 1e-6)
		huge[3] = 1e12
		lanes["huge sample ahead"] = huge
		hugeDC := lane(227, []int{100}, []float64{1}, 1, 1e6, 0.01)
		hugeDC[0] = complex(0, 1e15)
		lanes["huge sample over DC"] = hugeDC
		for i := 0; i < 4; i++ {
			lanes[fmt.Sprintf("specials %d", i)] = specialSignal(rng, 227)
			sp := lane(227, []int{60}, []float64{1}, 1, 0.5, 0.01)
			sp[rng.Intn(len(sp))] = complex(math.Inf(1-2*(i%2)), 0)
			sp[rng.Intn(len(sp))] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
			if i >= 2 {
				sp[200] = complex(math.NaN(), 1)
			}
			lanes[fmt.Sprintf("preamble with specials %d", i)] = sp
		}
		for name, x := range lanes {
			checkLanePeakFloors(t, rc.name+", "+name, kn, ar, x)
			checkPeak(t, rc.name+", "+name, kn, ar, x)
		}
	}
}

// The search over several lanes: a near miss in an early lane and the
// winner in a later one, lanes on the direct and the FFT path side by
// side, lanes too short or empty, and a reference without a table.
func TestOffsetImmunePeakLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	ar := new(Arena)
	for _, ref := range [][]complex128{centredPreamble(63, 1, 1i), randSignal(rng, 63)} {
		kn := NewCorrKernel(ref)
		lane := func(n int, at []int, amps []float64, sigma float64) []complex128 {
			return peakLane(rng, n, 1, 1i, at, amps, 1, 0.4-0.2i, sigma)
		}
		cases := map[string][][]complex128{
			"winner in lane 2": {lane(227, []int{0}, []float64{0.9}, 0.05), lane(227, nil, nil, 0.05),
				lane(227, []int{30}, []float64{1}, 0.001), lane(227, []int{30}, []float64{0.95}, 0.01)},
			"direct and FFT lanes": {lane(227, []int{10}, []float64{0.97}, 0.01), lane(700, []int{500}, []float64{1}, 0.001),
				lane(400, []int{20}, []float64{0.99}, 0.001), lane(227, []int{100}, []float64{1}, 0.001)},
			"short and empty lanes": {lane(40, nil, nil, 0.1), nil, lane(63, []int{0}, []float64{1}, 0.2),
				lane(150, []int{60}, []float64{1}, 0.3)},
			"low SNR": {lane(227, []int{5}, []float64{1}, 1), lane(227, []int{5}, []float64{1}, 1.2),
				lane(227, []int{5}, []float64{1}, 0.9)},
		}
		for name, lanes := range cases {
			checkPeak(t, name, kn, ar, lanes...)
		}
	}
}

// Exact score ties: with integer-valued samples and a ±1 reference
// every sum is exact, so two identical windows score bit-identically
// and the first lag, then the first lane, must win, pruned or not.
func TestOffsetImmunePeakTiesFirstWins(t *testing.T) {
	ref := preamblePoints(63, 1, -1) // uncentred ±1: two table values
	kn := NewCorrKernel(ref)
	x := make([]complex128, 0, 200)
	x = append(x, 3, -2, 1, 0, 2)
	x = append(x, ref...)
	x = append(x, 1, 1, -1, 2, 0, 0, 3)
	x = append(x, ref...)
	x = append(x, 2, -1, 0)
	first, second := 5, 5+63+7
	wantLag, want := fullPeak(kn, x)
	if wantLag != first {
		t.Fatalf("oracle peak at %d, want %d", wantLag, first)
	}
	// The second copy must score exactly the same, or this is no tie.
	if _, s2 := fullPeak(kn, x[second:second+63]); s2 != want {
		t.Fatalf("copies score %v and %v, want a tie", want, s2)
	}
	ar := new(Arena)
	shifted := append([]complex128{7}, x...) // the same copies one lag later
	lane, lag, score := kn.OffsetImmunePeak(lanesBatch(shifted, x, x), ar)
	if lane != 0 || lag != first+1 || score != want {
		t.Fatalf("got (%d, %d, %v), want (0, %d, %v)", lane, lag, score, first+1, want)
	}
	checkLanePeakFloors(t, "tie", kn, ar, x)
	checkPeak(t, "tie across lanes", kn, ar, shifted, x, x)
}

// Trivial inputs return (-1, -1, 0).
func TestOffsetImmunePeakDegenerate(t *testing.T) {
	x := randSignal(rand.New(rand.NewSource(62)), 40)
	for _, c := range []struct {
		name string
		ref  []complex128
		x    *Batch
	}{
		{"empty reference", nil, lanesBatch(x)},
		{"reference longer than x", randSignal(rand.New(rand.NewSource(63)), 41), lanesBatch(x)},
		{"zero reference", make([]complex128, 8), lanesBatch(x)},
		{"empty lane", centredPreamble(15, 1, -1), lanesBatch(nil)},
		{"no lanes", centredPreamble(15, 1, -1), NewBatch(0, 0)},
	} {
		lane, lag, score := NewCorrKernel(c.ref).OffsetImmunePeak(c.x, nil)
		if lane != -1 || lag != -1 || score != 0 {
			t.Fatalf("%s: got (%d, %d, %v), want (-1, -1, 0)", c.name, lane, lag, score)
		}
	}
}

// A warmed arena makes the search allocation-free on both the table
// path and the FFT path.
func TestOffsetImmunePeakZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(64))
	kn := NewCorrKernel(centredPreamble(63, 1, 1i))
	ar := new(Arena)
	for _, n := range []int{227, 700} {
		x := lanesBatch(peakLane(rng, n, 1, 1i, []int{40}, []float64{1}, 1, 0.3, 0.05),
			peakLane(rng, n, 1, 1i, []int{41}, []float64{1}, 1, 0.3, 0.05))
		kn.OffsetImmunePeak(x, ar)
		if allocs := testing.AllocsPerRun(20, func() { kn.OffsetImmunePeak(x, ar) }); allocs != 0 {
			t.Fatalf("n=%d: %v allocs per call, want 0", n, allocs)
		}
	}
}

// FuzzOffsetImmunePeak drives the floor contract with fuzzer-chosen
// lanes: a seeded preamble lane (copies, amplitude, offset, noise)
// whose samples the raw bytes then overwrite with arbitrary float64
// bit patterns, searched alone at a fuzzer-chosen floor and at the
// unpruned score, and by OffsetImmunePeak with a copy one sample later
// as a second alignment.
func FuzzOffsetImmunePeak(f *testing.F) {
	f.Add(int64(1), uint8(164), uint8(0), 1.0, 0.5, -0.2, 0.03, 0.0, []byte{})
	f.Add(int64(2), uint8(0), uint8(2), 1e-3, 1e6, 0.0, 1.0, 0.5, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(int64(3), uint8(37), uint8(3), 1.0, 0.0, 0.0, 0.0, 0.999, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(4), uint8(250), uint8(1), 1e12, -1.0, 1.0, 1e-3, 1.0, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(int64(5), uint8(10), uint8(4), 1.0, 0.3, 0.0, 0.05, 0.9, []byte{})
	refs := []*CorrKernel{
		NewCorrKernel(centredPreamble(63, 1, 1i)),
		NewCorrKernel(centredPreamble(63, 0.05, 1)),
		NewCorrKernel(centredPreamble(31, 1, -1)),
		NewCorrKernel(centredPreamble(12, 0.3-0.9i, -0.7+0.2i)),
	}
	ar := new(Arena)
	f.Fuzz(func(t *testing.T, seed int64, extra, shape uint8, amp, dcRe, dcIm, sigma, floor float64, raw []byte) {
		kn := refs[int(shape)%len(refs)]
		rng := rand.New(rand.NewSource(seed))
		n := len(kn.ref) + int(extra)
		if shape&4 != 0 {
			n += directMaxWork / len(kn.ref) // past the direct threshold: the FFT path
		}
		at := []int{rng.Intn(n), rng.Intn(n)}
		amps := []float64{1, 0.5 + rng.Float64()}
		x := peakLane(rng, n, 1, 1i, at, amps, amp, complex(dcRe, dcIm), sigma)
		for i := 0; i+8 <= len(raw) && i/8 < 2*n; i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
			j := (i / 8) / 2
			if (i/8)%2 == 0 {
				x[j] = complex(v, imag(x[j]))
			} else {
				x[j] = complex(real(x[j]), v)
			}
		}
		if floor < 0 || math.IsNaN(floor) {
			floor = 0
		}
		checkLanePeak(t, "fuzz", kn, floor, ar, x)
		_, want := fullPeak(kn, x)
		checkLanePeak(t, "fuzz at the unpruned score", kn, want, ar, x)
		checkPeak(t, "fuzz, two alignments", kn, ar, x, x[1:])
	})
}

// BenchmarkOffsetImmunePeak is the waveform tier's preamble search for
// one frame: four sub-symbol alignment lanes of 227 symbols against the
// centred 63-symbol QPSK preamble at ~30 dB.
func BenchmarkOffsetImmunePeak(b *testing.B) {
	rng := rand.New(rand.NewSource(65))
	kn := NewCorrKernel(centredPreamble(63, 1, 1i))
	lanes := make([][]complex128, 4)
	for i := range lanes {
		lanes[i] = peakLane(rng, 227, 1, 1i, []int{0}, []float64{1}, 1-0.2*float64(i), 0.4-0.2i, 0.03)
	}
	x := lanesBatch(lanes...)
	ar := new(Arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kn.OffsetImmunePeak(x, ar)
	}
}
