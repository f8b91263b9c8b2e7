package link

import (
	"math"
	"testing"

	"mmtag/internal/mac"
	"mmtag/internal/par"
)

// probeRate is the scale engine's poll rate (net.ProbeRate).
func probeRate() mac.Rate { return mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6} }

// bracketPayloads are the frame sizes the bracket sweep covers: the
// default 32-byte payload every scale run uses, plus a shorter and a
// longer frame.
var bracketPayloads = []int{4, 32, 256}

// TestBudgetTableBracketsSuccessProb sweeps every bin of the table:
// each bin edge ±4 ulps and 64 interior points must satisfy
// lo <= SuccessProb(snr) < hi, the invariant that makes a bracketed
// frame decision exact. Points past the table's ends must get the
// empty bracket.
func TestBudgetTableBracketsSuccessProb(t *testing.T) {
	r := probeRate()
	var b Budget
	for _, payload := range bracketPayloads {
		airBits := airBitsFor(r, payload)
		tbl := NewBudgetTable(r, airBits)
		bad := 0
		check := func(snr float64, inTable bool) {
			br := tbl.At(snr)
			p := b.SuccessProb(r, snr, airBits)
			if inTable != !math.IsInf(br.lo, -1) || inTable != !math.IsInf(br.hi, 1) {
				t.Errorf("%d air bits, snr %g: bracket [%g, %g), in table %v", airBits, snr, br.lo, br.hi, inTable)
				bad++
			}
			if !(br.lo <= p && p < br.hi) {
				t.Errorf("%d air bits, snr %g (%.4f dB): SuccessProb %.17g outside bracket [%.17g, %.17g)",
					airBits, snr, 10*math.Log10(snr), p, br.lo, br.hi)
				bad++
			}
			if bad > 10 {
				t.FailNow()
			}
		}
		for j := 0; j <= bracketBins; j++ {
			edge := math.Float64bits(bracketEdge(j))
			for k := -4; k <= 4; k++ {
				inTable := (j > 0 || k >= 0) && (j < bracketBins || k < 0)
				check(math.Float64frombits(uint64(int64(edge)+int64(k))), inTable)
			}
			if j == bracketBins {
				break
			}
			const interior = 64
			step := (uint64(1) << bracketShift) / (interior + 1)
			for m := uint64(1); m <= interior; m++ {
				check(math.Float64frombits(edge+m*step), true)
			}
		}
		for _, snr := range []float64{math.NaN(), math.Inf(-1), -1, math.Copysign(0, -1), 0,
			0x1p-30, 0x1p40, math.Inf(1)} {
			check(snr, false)
		}
	}
}

// TestFrameBracketDeliveredExact pins Delivered to the exact
// comparison u < SuccessProb for draws on and around every boundary —
// the bracket's ends and the probability itself — and for a stream of
// ordinary draws, in the table, past its ends and at degenerate SNRs.
func TestFrameBracketDeliveredExact(t *testing.T) {
	r := probeRate()
	var b Budget
	airBits := airBitsFor(r, 32)
	tbl := NewBudgetTable(r, airBits)
	snrs := []float64{math.NaN(), math.Inf(-1), -3, 0, 0x1p-30, 0x1p40, math.Inf(1)}
	for db := -80.0; db <= 100; db += 0.37 {
		snrs = append(snrs, math.Pow(10, db/10))
	}
	st := par.NewStream(11, 3)
	for _, snr := range snrs {
		p := b.SuccessProb(r, snr, airBits)
		br := tbl.At(snr)
		us := []float64{0, 1 - 0x1p-53, p, math.Nextafter(p, -1), math.Nextafter(p, 2)}
		for _, edge := range []float64{br.lo, br.hi} {
			us = append(us, edge, math.Nextafter(edge, -1), math.Nextafter(edge, 2))
		}
		for i := 0; i < 32; i++ {
			us = append(us, st.Float64())
		}
		for _, u := range us {
			if got, want := br.Delivered(u), u < p; got != want {
				t.Fatalf("snr %g, u %.17g: Delivered %v, want %v (p %.17g, bracket [%.17g, %.17g))",
					snr, u, got, want, p, br.lo, br.hi)
			}
		}
	}
}

// TestFrameBracketSaturatedSkipsClosedForm checks the point of the
// table: where the success probability is pinned at 0 or 1 no ordinary
// draw lands inside the bracket, so the closed form never runs.
func TestFrameBracketSaturatedSkipsClosedForm(t *testing.T) {
	tbl := NewBudgetTable(probeRate(), airBitsFor(probeRate(), 32))
	st := par.NewStream(5, 9)
	for _, db := range []float64{-10, 30} {
		br := tbl.At(math.Pow(10, db/10))
		for i := 0; i < 1000; i++ {
			br.Delivered(st.Float64())
		}
		if br.exact {
			t.Errorf("%g dB: a draw fell through to the closed form", db)
		}
	}
}
