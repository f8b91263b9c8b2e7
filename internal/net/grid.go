package net

import (
	"fmt"
	"math"

	"mmtag/internal/channel"
	"mmtag/internal/geom"
	"mmtag/internal/vanatta"
)

// defaultCellM is the cell pitch in metres: the poll-level
// deployment's, and the scale path's unless ScaleConfig.CellM says
// otherwise.
const defaultCellM = 8

// tagElements sizes every tag's Van Atta array.
const tagElements = 8

// discoverySectorDeg is the per-cell beam-sweep half-angle. APs are
// wall-mounted facing into their cell, so a wide sweep (±72°) covers
// everything except the extreme corners — the realistic coverage of a
// wall-mounted phased array.
const discoverySectorDeg = 72

// cosDiscoverySector is the coverage test constant: a tag is inside an
// AP's discovery sector when the northward component of the AP→tag
// direction is at least cos(72°) of the range.
var cosDiscoverySector = math.Cos(discoverySectorDeg * math.Pi / 180)

// assocBandwidthHz is the noise bandwidth of the association SNR
// estimate. It matches the discovery probe bandwidth order (10 MHz), so
// the hysteresis threshold is expressed in the same units the MAC's
// rate selection reasons about.
const assocBandwidthHz = 10e6

// tagInsertionLossDB is the reflector trace/switch loss shared by the
// association estimate and the per-cell tag devices (the testbed value).
const tagInsertionLossDB = 1.5

// minAssocDistM floors the estimate's range so a tag standing on top of
// an AP doesn't produce an infinite SNR.
const minAssocDistM = 0.25

// apGrid is the AP layout and association model both deployment
// engines share. APs tile a rows×cols grid of cellM-pitch cells in row
// order, each wall-mounted at the midpoint of its cell's south edge
// facing north (the warehouse-aisle geometry); the last row is ragged
// when the AP count is not a multiple of cols.
//
// A tag associates by the analytic monostatic link budget from each AP
// at boresight gain (the sweep will find the tag's beam) with the tag
// squarely facing the AP. The estimate deliberately ignores
// interference — real association measurements average over it — which
// keeps it a pure function of geometry and makes ties exactly
// reproducible.
type apGrid struct {
	aps, rows, cols int
	cellM           float64
	apX, apY        []float64
	// refl is the tag's Van Atta array, and budget the link to it from
	// the reference AP at boresight, with DistanceM left zero. Both are
	// read-only after newGrid; vanatta gain evaluation is pure, so
	// concurrent cells may share them.
	refl   *vanatta.Array
	budget channel.Link
	// snr1m is the linear association-bandwidth SNR at 1 m range. The
	// budget is monostatic free space, so SNR(d) = snr1m / d^4 exactly
	// — one division per candidate AP instead of a full budget
	// evaluation.
	snr1m float64
}

// newGrid lays out aps APs in cols columns (0 picks a near-square
// ceil(sqrt(aps))) at cellM pitch (0 picks defaultCellM), with tags
// modulating the named alphabet.
func newGrid(aps, cols int, cellM float64, modulation string) (apGrid, error) {
	if aps < 1 {
		return apGrid{}, fmt.Errorf("net: deployment needs at least one AP, got %d", aps)
	}
	if aps > maxCells {
		return apGrid{}, fmt.Errorf("net: too many APs (%d)", aps)
	}
	if cols <= 0 {
		cols = int(math.Ceil(math.Sqrt(float64(aps))))
	}
	if cellM == 0 {
		cellM = defaultCellM
	}
	if !(cellM > 0) || math.IsInf(cellM, 1) {
		return apGrid{}, fmt.Errorf("net: cell pitch must be positive and finite, got %g m", cellM)
	}
	ref, err := newCellAP()
	if err != nil {
		return apGrid{}, err
	}
	refl, err := vanatta.New(vanatta.Config{
		Elements:        tagElements,
		InsertionLossDB: tagInsertionLossDB,
	})
	if err != nil {
		return apGrid{}, err
	}
	mod, err := vanatta.ByName(modulation)
	if err != nil {
		return apGrid{}, fmt.Errorf("net: %w", err)
	}
	g := apGrid{
		aps:   aps,
		rows:  (aps + cols - 1) / cols,
		cols:  cols,
		cellM: cellM,
		apX:   make([]float64, aps),
		apY:   make([]float64, aps),
		refl:  refl,
		budget: channel.Link{
			FreqHz:        ref.Config().FreqHz,
			TxPowerW:      ref.Config().TxPowerW,
			APGain:        ref.GainToward(0),
			Reflector:     refl,
			ModEfficiency: mod.MeanReflectedPower(),
			NoiseFigureDB: ref.Config().NoiseFigureDB,
		},
	}
	for a := 0; a < aps; a++ {
		g.apX[a] = (float64(a%cols) + 0.5) * cellM
		g.apY[a] = float64(a/cols) * cellM
	}
	if g.snr1m, err = g.link(1).SNR(assocBandwidthHz); err != nil {
		return apGrid{}, fmt.Errorf("net: association budget: %w", err)
	}
	return g, nil
}

// Width and Height return the deployment area in metres.
func (g *apGrid) Width() float64  { return float64(g.cols) * g.cellM }
func (g *apGrid) Height() float64 { return float64(g.rows) * g.cellM }

// apPos returns AP a's position.
func (g *apGrid) apPos(a int) geom.Point { return geom.Point{X: g.apX[a], Y: g.apY[a]} }

// link returns the association budget at distance dist; the leakage
// model prices a tag's incident power with it too.
func (g *apGrid) link(dist float64) *channel.Link {
	l := g.budget
	l.DistanceM = dist
	return &l
}

// snrAt returns the linear association-bandwidth SNR from AP a to
// (x, y), with the minimum-range clamp.
func (g *apGrid) snrAt(a int, x, y float64) float64 {
	dx, dy := x-g.apX[a], y-g.apY[a]
	d2 := dx*dx + dy*dy
	if d2 < minAssocDistM*minAssocDistM {
		d2 = minAssocDistM * minAssocDistM
	}
	return g.snr1m / (d2 * d2)
}

// coversAt reports whether AP a's discovery sector (±72° off its north
// boresight) contains (x, y). Association is sector-aware because an AP
// can only discover and poll tags its beam sweep reaches. A tag south
// of the AP is never covered, and that needs no square root.
func (g *apGrid) coversAt(a int, x, y float64) bool {
	dx, dy := x-g.apX[a], y-g.apY[a]
	if dy < 0 {
		return false
	}
	d := math.Sqrt(dx*dx + dy*dy)
	return dy >= d*cosDiscoverySector
}

// better reports whether candidate (snr, a) beats the incumbent
// (bestSNR, best) under the association tie rule — higher SNR wins,
// exact ties keep the lowest AP index. Expressed symmetrically so the
// selection is independent of scan order.
func better(snr float64, a int, bestSNR float64, best int) bool {
	if snr != bestSNR {
		return snr > bestSNR
	}
	return a < best
}

// assign returns the serving AP of position (x, y) and its linear
// association SNR: the covering AP with the best SNR, or, where no
// sector covers (a deep corner), the best AP regardless, which keeps
// the tag on some roster.
//
// Candidates come from the 3×3 grid-cell neighbourhood of the
// containing cell: with south-edge APs facing north, the winner always
// lies there when every neighbourhood slot inside the grid holds an
// AP. Next to the empty slots of a ragged last row it may not, so
// there assign falls back to the exhaustive scan. The APs of the row
// north of the containing cell sit north of the tag, so they never
// cover it: that row is scanned only when the tag's own row and the
// one south of it hold no covering AP, for the fallback, or when
// rounding has put the row's APs level with the tag.
//
// Most tags need no scan at all: see ownCell.
// TestScaleAssignStableUnderReEnumeration pins assign to assignFull on
// complete and ragged grids, and TestAssignOwnCellMatchesFullScan pins
// the own-cell return at the points where its guards are tight.
func (g *apGrid) assign(x, y float64) (best int, bestSNR float64) {
	cc := int(x / g.cellM)
	cr := int(y / g.cellM)
	if a, snr, ok := g.ownCell(cc, cr, x, y); ok {
		return a, snr
	}
	c0, c1 := max(cc-1, 0), min(cc+1, g.cols-1)
	best, bestSNR = -1, math.Inf(-1)
	fallback, fallbackSNR := -1, math.Inf(-1)
	for r := max(cr-1, 0); r <= cr+1 && r < g.rows; r++ {
		if r == cr+1 && best >= 0 && g.apY[r*g.cols] > y {
			break
		}
		for c := c0; c <= c1; c++ {
			a := r*g.cols + c
			if a >= g.aps {
				return g.assignFull(x, y, nil)
			}
			snr := g.snrAt(a, x, y)
			if g.coversAt(a, x, y) {
				if best < 0 || better(snr, a, bestSNR, best) {
					best, bestSNR = a, snr
				}
			} else if fallback < 0 || better(snr, a, fallbackSNR, fallback) {
				fallback, fallbackSNR = a, snr
			}
		}
	}
	if best < 0 {
		best, bestSNR = fallback, fallbackSNR
	}
	if !(bestSNR >= minNormal) {
		// An SNR that underflowed (at distances beyond ~1e77 m) can tie
		// with APs outside the neighbourhood, where the tie rule may
		// prefer a lower index.
		return g.assignFull(x, y, nil)
	}
	return best, bestSNR
}

// ownCellDX bounds, as a fraction of the pitch, how far east or west of
// its own-cell AP a tag may stand for ownCell to decide it: the same-row
// neighbours then sit at least 0.51 pitches away, a squared-distance gap
// of 0.02 pitch² that no rounding closes.
const ownCellDX = 0.49

// minNormal is the smallest positive normal float64.
const minNormal = 0x1p-1022

// ownCell decides association without a scan when the AP of the tag's
// own cell (cc, cr) must win: it exists and covers the tag, the tag is
// within ownCellDX pitches of it east-west and outside the minimum-range
// clamp (so its SNR is finite), its SNR is a normal float, and the row
// north of the cell lies strictly north of the tag. Every AP of that row
// or beyond then faces away from the tag and cannot cover it; every
// other AP is at least 0.02 pitch² farther in squared distance, so its
// SNR is strictly lower (a normal SNR leaves room below it). Both hold
// on ragged grids, since only the own-cell AP is read. ok is false when
// any guard fails, and assign scans.
func (g *apGrid) ownCell(cc, cr int, x, y float64) (a int, snr float64, ok bool) {
	if cc < 0 || cc >= g.cols || cr < 0 {
		return 0, 0, false
	}
	a = cr*g.cols + cc
	if a >= g.aps || (cr+1 < g.rows && !(float64(cr+1)*g.cellM > y)) {
		return 0, 0, false
	}
	// The same expressions as snrAt, so the SNR is bit-identical.
	dx, dy := x-g.apX[a], y-g.apY[a]
	d2 := dx*dx + dy*dy
	if !(math.Abs(dx) < ownCellDX*g.cellM) || !(d2 > minAssocDistM*minAssocDistM) {
		return 0, 0, false
	}
	snr = g.snr1m / (d2 * d2)
	if !(snr >= minNormal) || !g.coversAt(a, x, y) {
		return 0, 0, false
	}
	return a, snr, true
}

// assignFull is assign by exhaustive scan over every AP, in index
// order when order is nil and in the given order otherwise; the result
// does not depend on the order.
func (g *apGrid) assignFull(x, y float64, order []int) (best int, bestSNR float64) {
	best, bestSNR = -1, math.Inf(-1)
	fallback, fallbackSNR := -1, math.Inf(-1)
	for i := 0; i < g.aps; i++ {
		a := i
		if order != nil {
			a = order[i]
		}
		snr := g.snrAt(a, x, y)
		if g.coversAt(a, x, y) {
			if best < 0 || better(snr, a, bestSNR, best) {
				best, bestSNR = a, snr
			}
		} else if fallback < 0 || better(snr, a, fallbackSNR, fallback) {
			fallback, fallbackSNR = a, snr
		}
	}
	if best >= 0 {
		return best, bestSNR
	}
	return fallback, fallbackSNR
}
