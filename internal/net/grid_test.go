package net

import (
	"fmt"
	"math"
	"testing"
)

// ulpsAround returns v and the n float64s either side of it.
func ulpsAround(v float64, n int) []float64 {
	out := []float64{v}
	lo, hi := v, v
	for i := 0; i < n; i++ {
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		out = append(out, lo, hi)
	}
	return out
}

// TestAssignOwnCellMatchesFullScan pins assign's own-cell return to the
// exhaustive scan where each of its guards is tight: at every cell
// corner ±1 ulp; at |dx| = cellM/2 and 0.49·cellM ± ulps from each AP;
// inside, on and just outside the minimum-range clamp; level with each
// AP row ± ulps, where the 0.7 m and 0.3 m pitches round some rows into
// the cell south of them; and at pitches so large that d² overflows and
// the SNR underflows to zero for far tags. Both the own-cell return and
// the scan must be exercised.
func TestAssignOwnCellMatchesFullScan(t *testing.T) {
	var hits, scans int
	for _, tc := range []struct{ aps, cols int }{
		{1, 0}, {9, 0}, {7, 0}, {13, 0}, {5, 3}, {4, 1}, {5, 5},
	} {
		for _, cellM := range []float64{32, 8, 0.7, 0.3, 0.2, 1e153, 1e154, 1e155} {
			t.Run(fmt.Sprintf("aps%d_cols%d_%gm", tc.aps, tc.cols, cellM), func(t *testing.T) {
				g, err := newGrid(tc.aps, tc.cols, cellM, scaleRate.Mod.Name)
				if err != nil {
					t.Fatal(err)
				}
				check := func(x, y float64) {
					apN, snrN := g.assign(x, y)
					apF, snrF := g.assignFull(x, y, nil)
					if apN != apF || snrN != snrF {
						t.Fatalf("(%.17g,%.17g): assign (%d,%g) vs full scan (%d,%g)", x, y, apN, snrN, apF, snrF)
					}
					if _, _, ok := g.ownCell(int(x/cellM), int(y/cellM), x, y); ok {
						hits++
					} else {
						scans++
					}
				}
				for r := 0; r <= g.rows; r++ {
					for c := 0; c <= g.cols; c++ {
						for _, x := range ulpsAround(float64(c)*cellM, 1) {
							for _, y := range ulpsAround(float64(r)*cellM, 1) {
								check(x, y)
							}
						}
					}
				}
				var dys []float64
				for _, dy := range []float64{0, 0.1, minAssocDistM, 0.3, 0.5 * cellM, 0.99 * cellM} {
					dys = append(dys, ulpsAround(dy, 2)...)
				}
				for a := 0; a < g.aps; a++ {
					ax, ay := g.apX[a], g.apY[a]
					for _, dx := range []float64{0.5 * cellM, ownCellDX * cellM, 0.1} {
						for _, x := range append(ulpsAround(ax-dx, 3), ulpsAround(ax+dx, 3)...) {
							for _, dy := range dys {
								check(x, ay+dy)
							}
						}
					}
					// On, inside and just outside the clamp radius.
					for _, d := range append(ulpsAround(minAssocDistM, 2), 0, 0.01, 0.2) {
						check(ax, ay+d)
						check(ax+d*0.6, ay+d*0.8)
					}
				}
				// Just south of each row of APs, where rounding may have
				// put the row inside the cell south of it.
				for r := 1; r < g.rows; r++ {
					ry := float64(r) * cellM
					for c := 0; c < g.cols; c++ {
						for _, y := range ulpsAround(ry, 4) {
							check((float64(c)+0.5)*cellM, y)
							check((float64(c)+0.3)*cellM, y)
						}
					}
				}
			})
		}
	}
	if hits == 0 || scans == 0 {
		t.Fatalf("own-cell return taken %d times, scan %d times: both must be exercised", hits, scans)
	}
}
