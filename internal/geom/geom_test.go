package geom

import (
	"math"
	"testing"
)

func TestPointOps(t *testing.T) {
	a := Point{3, 4}
	if a.Norm() != 5 {
		t.Fatal("norm")
	}
	if Dist(Point{1, 1}, Point{4, 5}) != 5 {
		t.Fatal("dist")
	}
	if (a.Sub(Point{1, 1})) != (Point{2, 3}) {
		t.Fatal("sub")
	}
	if (a.Add(Point{1, -1})) != (Point{4, 3}) {
		t.Fatal("add")
	}
	if a.Scale(2) != (Point{6, 8}) {
		t.Fatal("scale")
	}
	if a.Dot(Point{1, 2}) != 11 {
		t.Fatal("dot")
	}
}

func TestRectangleValidation(t *testing.T) {
	if _, err := Rectangle(0, 5, 1); err == nil {
		t.Fatal("zero width must error")
	}
	r, err := Rectangle(10, 6, 2)
	if err != nil || len(r.Walls) != 4 {
		t.Fatalf("rectangle: %v", err)
	}
	for _, w := range r.Walls {
		if w.ReflectivityRCS != 2 {
			t.Fatal("wall RCS not applied")
		}
	}
}

func TestSegmentsIntersect(t *testing.T) {
	// Crossing diagonals.
	if !segmentsIntersect(Point{0, 0}, Point{2, 2}, Point{0, 2}, Point{2, 0}) {
		t.Fatal("diagonals must intersect")
	}
	// Parallel lines don't.
	if segmentsIntersect(Point{0, 0}, Point{2, 0}, Point{0, 1}, Point{2, 1}) {
		t.Fatal("parallels must not intersect")
	}
	// Disjoint segments on crossing lines don't.
	if segmentsIntersect(Point{0, 0}, Point{1, 1}, Point{5, 6}, Point{6, 5}) {
		t.Fatal("disjoint must not intersect")
	}
}

func TestPathAttenuation(t *testing.T) {
	r, _ := Rectangle(10, 10, 1)
	// A shelf across the middle, 15 dB.
	if err := r.AddObstacle(Point{5, 2}, Point{5, 8}, 15); err != nil {
		t.Fatal(err)
	}
	// Path crossing the shelf.
	if a := r.PathAttenuationDB(Point{1, 5}, Point{9, 5}); a != 15 {
		t.Fatalf("crossing attenuation %g, want 15", a)
	}
	// Path around it.
	if a := r.PathAttenuationDB(Point{1, 9}, Point{9, 9}); a != 0 {
		t.Fatalf("clear path attenuation %g", a)
	}
	// Two obstacles accumulate.
	r.AddObstacle(Point{7, 2}, Point{7, 8}, 5)
	if a := r.PathAttenuationDB(Point{1, 5}, Point{9, 5}); a != 20 {
		t.Fatalf("double crossing %g, want 20", a)
	}
}

func TestAddObstacleValidation(t *testing.T) {
	r, _ := Rectangle(4, 4, 1)
	if err := r.AddObstacle(Point{1, 1}, Point{1, 1}, 5); err == nil {
		t.Fatal("degenerate obstacle must error")
	}
	if err := r.AddObstacle(Point{1, 1}, Point{2, 2}, -1); err == nil {
		t.Fatal("negative attenuation must error")
	}
}

func TestMonostaticEchoes(t *testing.T) {
	r, _ := Rectangle(10, 6, 3)
	ap := Point{2, 3}
	echoes := r.MonostaticEchoes(ap)
	// All four perpendicular feet are inside the rectangle's walls.
	if len(echoes) != 4 {
		t.Fatalf("echo count %d, want 4", len(echoes))
	}
	// Distances: 3 (bottom), 8 (right), 3 (top), 2 (left).
	want := map[float64]bool{3: true, 8: true, 2: true}
	for _, e := range echoes {
		if !want[e.DistanceM] {
			t.Fatalf("unexpected echo distance %g", e.DistanceM)
		}
		if e.RCS != 3 {
			t.Fatal("echo RCS")
		}
	}
	// An AP outside a wall's span loses that echo.
	short := Room{Walls: []Segment{{A: Point{5, 0}, B: Point{6, 0}, ReflectivityRCS: 1}}}
	if n := len(short.MonostaticEchoes(Point{0, 3})); n != 0 {
		t.Fatalf("off-span echo count %d, want 0", n)
	}
}

func TestPolar(t *testing.T) {
	ap := Point{0, 0}
	// Target straight down boresight (+X).
	d, az := Polar(ap, Point{5, 0}, 0)
	if d != 5 || math.Abs(az) > 1e-12 {
		t.Fatalf("boresight polar (%g, %g)", d, az)
	}
	// 45 degrees left.
	d, az = Polar(ap, Point{1, 1}, 0)
	if math.Abs(d-math.Sqrt2) > 1e-12 || math.Abs(az-math.Pi/4) > 1e-12 {
		t.Fatalf("diagonal polar (%g, %g)", d, az)
	}
	// Boresight rotation subtracts.
	_, az = Polar(ap, Point{1, 1}, math.Pi/4)
	if math.Abs(az) > 1e-12 {
		t.Fatalf("rotated polar az %g", az)
	}
	// Wrap-around stays in (-pi, pi].
	_, az = Polar(ap, Point{-1, -0.001}, math.Pi/2)
	if az > math.Pi || az <= -math.Pi {
		t.Fatalf("azimuth %g out of range", az)
	}
}
