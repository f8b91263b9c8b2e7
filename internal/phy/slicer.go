package phy

import (
	"math"
	"sort"
)

// The fast slicers are plain data structs rather than closures so hot
// kernels (MeasureBER's fused body, the batch demodulator's decision loops) can
// branch on the recognized shape once and inline the per-symbol
// decision, instead of paying an indirect call per symbol.

// gridData decides complete rectangular grids (QAM alphabets, OOK and
// BPSK as degenerate 1-row grids, 45°-rotated QPSK as a 2×2 grid) by
// independent per-axis nearest-level thresholding.
type gridData struct {
	reMids, imMids []float64
	idx            []int
	nim            int
}

func (g *gridData) slice(r complex128) int {
	ri := nearestLevel(g.reMids, real(r))
	ii := nearestLevel(g.imMids, imag(r))
	return g.idx[ri*g.nim+ii]
}

// diamondData decides the axis-aligned 4-point diamond (classic QPSK)
// by dominant axis and sign.
type diamondData struct {
	right, up, down, left int
}

// slice stays small enough to inline into per-symbol loops; the
// zero-probability exact-tie case is split out into tie. The dominant
// axis and both signs are uniformly random under noise, so the common
// path is written as conditional moves rather than branches — a
// branch here mispredicts half the time.
func (d *diamondData) slice(r complex128) int {
	re, im := real(r), imag(r)
	are, aim := math.Abs(re), math.Abs(im)
	if are == aim {
		return d.tie(re, im, are)
	}
	h := d.right
	if re < 0 {
		h = d.left
	}
	v := d.up
	if im < 0 {
		v = d.down
	}
	if aim > are {
		h = v
	}
	return h
}

// tie resolves |re| == |im|: two candidates tie (all four at the
// origin); the scan would keep the first minimum it met.
func (d *diamondData) tie(re, im, are float64) int {
	if are == 0 {
		return 0
	}
	h, v := d.right, d.up
	if re < 0 {
		h = d.left
	}
	if im < 0 {
		v = d.down
	}
	if h < v {
		return h
	}
	return v
}

// buildFastSlicer inspects a constellation's geometry and returns the
// recognized structure-aware decision data, or (nil, nil) when no
// structure is found and the linear scan must be used.
//
// Both recognized shapes agree with the linear scan everywhere except
// exact decision boundaries, which have zero probability for the
// continuous-valued inputs the demodulators produce.
func buildFastSlicer(points []complex128) (*gridData, *diamondData) {
	if g := gridSlicer(points); g != nil {
		return g, nil
	}
	return nil, diamondSlicer(points)
}

// gridSlicer recognizes point sets forming a complete rectangular grid:
// every combination of the distinct real levels and distinct imaginary
// levels occurs exactly once.
func gridSlicer(points []complex128) *gridData {
	reLvls := axisLevels(points, func(p complex128) float64 { return real(p) })
	imLvls := axisLevels(points, func(p complex128) float64 { return imag(p) })
	nre, nim := len(reLvls), len(imLvls)
	if nre*nim != len(points) {
		return nil
	}
	reIdx := levelIndex(reLvls)
	imIdx := levelIndex(imLvls)
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = -1
	}
	for i, p := range points {
		cell := reIdx[real(p)]*nim + imIdx[imag(p)]
		if idx[cell] != -1 {
			return nil // duplicate point; not a complete grid
		}
		idx[cell] = i
	}
	return &gridData{
		reMids: midpoints(reLvls),
		imMids: midpoints(imLvls),
		idx:    idx,
		nim:    nim,
	}
}

func axisLevels(points []complex128, axis func(complex128) float64) []float64 {
	seen := make(map[float64]bool, len(points))
	var lvls []float64
	for _, p := range points {
		v := axis(p)
		if !seen[v] {
			seen[v] = true
			lvls = append(lvls, v)
		}
	}
	sort.Float64s(lvls)
	return lvls
}

func levelIndex(lvls []float64) map[float64]int {
	m := make(map[float64]int, len(lvls))
	for i, v := range lvls {
		m[v] = i
	}
	return m
}

func midpoints(lvls []float64) []float64 {
	mids := make([]float64, len(lvls)-1)
	for i := range mids {
		mids[i] = (lvls[i] + lvls[i+1]) / 2
	}
	return mids
}

// nearestLevel returns the index of the level whose decision region
// contains v: region i is bounded by mids[i-1] and mids[i].
func nearestLevel(mids []float64, v float64) int {
	i := 0
	for i < len(mids) && v > mids[i] {
		i++
	}
	return i
}

// diamondSlicer recognizes the axis-aligned 4-point diamond
// {(a,0), (0,a), (0,-a), (-a,0)} in any index order. Exact
// |re| == |im| ties resolve to the lowest point index, matching the
// scan's first-minimum rule.
func diamondSlicer(points []complex128) *diamondData {
	if len(points) != 4 {
		return nil
	}
	right, up, down, left := -1, -1, -1, -1
	var radii [4]float64
	for i, p := range points {
		re, im := real(p), imag(p)
		switch {
		case im == 0 && re > 0:
			right, radii[0] = i, re
		case im == 0 && re < 0:
			left, radii[1] = i, -re
		case re == 0 && im > 0:
			up, radii[2] = i, im
		case re == 0 && im < 0:
			down, radii[3] = i, -im
		default:
			return nil
		}
	}
	if right < 0 || up < 0 || down < 0 || left < 0 {
		return nil
	}
	for _, v := range radii[1:] {
		if v != radii[0] {
			return nil
		}
	}
	return &diamondData{right: right, up: up, down: down, left: left}
}
