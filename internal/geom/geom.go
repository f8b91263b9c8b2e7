// Package geom models simple 2-D deployment geometry: a room made of
// wall segments and interior obstacles. It converts geometry into the
// quantities the radio layer consumes — obstacle attenuation along a
// path, monostatic wall-clutter reflectors for the AP's cancellation
// problem, and polar (distance, azimuth) coordinates for tag placement.
//
// DESIGN.md: section 3 (module inventory); the room-geometry experiment E18
// of section 4 and the deployment grid of section 7 build on it.
package geom

import (
	"fmt"
	"math"
)

// Point is a 2-D position in metres.
type Point struct {
	X, Y float64
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the distance between two points.
func Dist(a, b Point) float64 { return a.Sub(b).Norm() }

// Segment is a wall or obstacle between two endpoints.
type Segment struct {
	A, B Point
	// AttenuationDB is the one-way loss for a path crossing the
	// segment (interior obstacles; 0 for a wall that is never crossed).
	AttenuationDB float64
	// ReflectivityRCS is the monostatic radar cross-section (m²) the
	// segment presents at normal incidence (walls: 1-10 m² per
	// illuminated patch).
	ReflectivityRCS float64
}

// Room is a set of boundary walls plus interior obstacles.
type Room struct {
	Walls     []Segment
	Obstacles []Segment
}

// Rectangle builds a room with four walls spanning (0,0)-(w,h), each
// with the given normal-incidence RCS.
func Rectangle(w, h, wallRCS float64) (Room, error) {
	if w <= 0 || h <= 0 {
		return Room{}, fmt.Errorf("geom: rectangle needs positive dimensions, got %g x %g", w, h)
	}
	mk := func(a, b Point) Segment {
		return Segment{A: a, B: b, ReflectivityRCS: wallRCS}
	}
	return Room{Walls: []Segment{
		mk(Point{0, 0}, Point{w, 0}),
		mk(Point{w, 0}, Point{w, h}),
		mk(Point{w, h}, Point{0, h}),
		mk(Point{0, h}, Point{0, 0}),
	}}, nil
}

// AddObstacle registers an interior segment with one-way attenuation.
func (r *Room) AddObstacle(a, b Point, attenuationDB float64) error {
	if a == b {
		return fmt.Errorf("geom: degenerate obstacle")
	}
	if attenuationDB < 0 {
		return fmt.Errorf("geom: attenuation must be >= 0")
	}
	r.Obstacles = append(r.Obstacles, Segment{A: a, B: b, AttenuationDB: attenuationDB})
	return nil
}

// segmentsIntersect reports whether segments pq and ab properly
// intersect (sharing an interior point).
func segmentsIntersect(p, q, a, b Point) bool {
	d1 := cross(b.Sub(a), p.Sub(a))
	d2 := cross(b.Sub(a), q.Sub(a))
	d3 := cross(q.Sub(p), a.Sub(p))
	d4 := cross(q.Sub(p), b.Sub(p))
	return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))
}

func cross(a, b Point) float64 { return a.X*b.Y - a.Y*b.X }

// PathAttenuationDB sums the one-way attenuation of every obstacle the
// straight path from a to b crosses.
func (r Room) PathAttenuationDB(a, b Point) float64 {
	total := 0.0
	for _, o := range r.Obstacles {
		if segmentsIntersect(a, b, o.A, o.B) {
			total += o.AttenuationDB
		}
	}
	return total
}

// perpendicularFoot returns the closest point on the segment's infinite
// line to p, its parameter t, and whether the foot lies within the
// segment.
func perpendicularFoot(p Point, s Segment) (Point, float64, bool) {
	d := s.B.Sub(s.A)
	n2 := d.Dot(d)
	if n2 == 0 {
		return s.A, 0, false
	}
	t := p.Sub(s.A).Dot(d) / n2
	foot := s.A.Add(d.Scale(t))
	return foot, t, t >= 0 && t <= 1
}

// WallEcho describes one monostatic wall reflection seen by a radar at
// a given position.
type WallEcho struct {
	// Point is the specular reflection point on the wall.
	Point Point
	// DistanceM is the one-way range to the specular point.
	DistanceM float64
	// RCS is the effective cross-section of the echo.
	RCS float64
}

// MonostaticEchoes returns the first-order wall echoes for a radar at
// ap: one per wall whose perpendicular foot falls within the wall
// segment (the specular condition for a monostatic radar).
func (r Room) MonostaticEchoes(ap Point) []WallEcho {
	var out []WallEcho
	for _, w := range r.Walls {
		foot, _, inside := perpendicularFoot(ap, w)
		if !inside {
			continue
		}
		d := Dist(ap, foot)
		if d == 0 {
			continue
		}
		out = append(out, WallEcho{Point: foot, DistanceM: d, RCS: w.ReflectivityRCS})
	}
	return out
}

// Polar converts a target position into (distance, azimuth) relative to
// an AP at origin facing along boresight (radians from +X axis).
func Polar(ap, target Point, boresightRad float64) (distanceM, azimuthRad float64) {
	d := target.Sub(ap)
	distanceM = d.Norm()
	azimuthRad = math.Atan2(d.Y, d.X) - boresightRad
	// Normalize to (-pi, pi].
	for azimuthRad > math.Pi {
		azimuthRad -= 2 * math.Pi
	}
	for azimuthRad <= -math.Pi {
		azimuthRad += 2 * math.Pi
	}
	return distanceM, azimuthRad
}
