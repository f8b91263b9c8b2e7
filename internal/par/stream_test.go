package par

import (
	"math"
	"testing"
)

func TestStreamDeterministic(t *testing.T) {
	a := NewStream(42, 7)
	b := NewStream(42, 7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestStreamShardsIndependent(t *testing.T) {
	a := NewStream(42, 1)
	b := NewStream(42, 2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("shards 1 and 2 collided on %d of 64 draws", same)
	}
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStream(1, 0)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 || math.IsNaN(v) {
			t.Fatalf("draw %d out of [0,1): %g", i, v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %g far from 0.5", mean)
	}
}

func TestStreamMatchesDeriveKeying(t *testing.T) {
	// The first draw is a pure function of Derive(root, shard): the
	// stream state starts there, so two roots that Derive apart must
	// draw apart.
	a := NewStream(1, 5)
	b := NewStream(2, 5)
	if a.Uint64() == b.Uint64() {
		t.Fatal("distinct roots produced identical first draws")
	}
}
