package fastrand

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The whole point of the package: every method must reproduce the
// stdlib stream bit for bit. Drive both generators through an
// interleaved schedule of every method so state desynchronization at
// any draw shows up immediately.
func TestMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, 42, -7, 1<<62 + 12345, -(1 << 40), 2147483646, 2147483647}
	for _, seed := range seeds {
		ref := rand.New(rand.NewSource(seed))
		got := New(seed)
		buf1, buf2 := make([]byte, 13), make([]byte, 13)
		for i := 0; i < 5000; i++ {
			switch i % 11 {
			case 0:
				if a, b := ref.Uint64(), got.Uint64(); a != b {
					t.Fatalf("seed %d step %d Uint64: %d != %d", seed, i, b, a)
				}
			case 1:
				if a, b := ref.Int63(), got.Int63(); a != b {
					t.Fatalf("seed %d step %d Int63: %d != %d", seed, i, b, a)
				}
			case 2:
				if a, b := ref.Uint32(), got.Uint32(); a != b {
					t.Fatalf("seed %d step %d Uint32: %d != %d", seed, i, b, a)
				}
			case 3:
				if a, b := ref.Int31(), got.Int31(); a != b {
					t.Fatalf("seed %d step %d Int31: %d != %d", seed, i, b, a)
				}
			case 4:
				n := int32(3 + i%100)
				if a, b := ref.Int31n(n), got.Int31n(n); a != b {
					t.Fatalf("seed %d step %d Int31n(%d): %d != %d", seed, i, n, b, a)
				}
			case 5:
				n := 1 + i%1000 // mix of power-of-two and general moduli
				if a, b := ref.Intn(n), got.Intn(n); a != b {
					t.Fatalf("seed %d step %d Intn(%d): %d != %d", seed, i, n, b, a)
				}
			case 6:
				n := int64(1)<<40 + int64(i)
				if a, b := ref.Int63n(n), got.Int63n(n); a != b {
					t.Fatalf("seed %d step %d Int63n(%d): %d != %d", seed, i, n, b, a)
				}
			case 7, 8:
				if a, b := ref.Float64(), got.Float64(); a != b {
					t.Fatalf("seed %d step %d Float64: %v != %v", seed, i, b, a)
				}
			case 9:
				if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
					t.Fatalf("seed %d step %d NormFloat64: %v != %v", seed, i, b, a)
				}
			case 10:
				k := 1 + i%len(buf1)
				ref.Read(buf1[:k])
				got.Read(buf2[:k])
				if !bytes.Equal(buf1[:k], buf2[:k]) {
					t.Fatalf("seed %d step %d Read(%d): % x != % x", seed, i, k, buf2[:k], buf1[:k])
				}
			}
		}
	}
}

// NormFloat64's slow paths (base strip, wedge rejection) are rare; make
// sure long pure-normal runs stay locked to the stdlib stream so those
// branches are provably exercised and identical.
func TestNormFloat64LongRun(t *testing.T) {
	ref := rand.New(rand.NewSource(99))
	got := New(99)
	for i := 0; i < 200000; i++ {
		if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
			t.Fatalf("step %d: %v != %v", i, b, a)
		}
	}
}

// Seed must fully reset the generator, including Read's carry state.
func TestSeedResets(t *testing.T) {
	r := New(5)
	r.Read(make([]byte, 3)) // leave a partial Int63 in the read buffer
	r.NormFloat64()
	r.Seed(6)
	ref := rand.New(rand.NewSource(6))
	buf1, buf2 := make([]byte, 9), make([]byte, 9)
	ref.Read(buf1)
	r.Read(buf2)
	if !bytes.Equal(buf1, buf2) {
		t.Fatalf("post-reseed Read: % x != % x", buf2, buf1)
	}
	if a, b := ref.Int63(), r.Int63(); a != b {
		t.Fatalf("post-reseed Int63: %d != %d", b, a)
	}
}

// Seed computes each register slot from a table of Lehmer powers
// instead of walking math/rand's serial seeding chain. Pin the register
// it builds against rand.NewSource at the seeding's edge cases (zero,
// both signs, the modulus and its neighbours, the int64 extremes) and
// at random seeds; 700 draws read every one of the 607 slots.
func TestSeedMatchesNewSource(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 31, 89482311, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	got := New(0)
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		for d := 0; d < 700; d++ {
			if a, b := ref.Uint64(), got.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: %d != %d", seed, d, b, a)
			}
		}
	}
}

func BenchmarkSeed(b *testing.B) {
	b.Run("fastrand", func(b *testing.B) {
		r := New(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		r := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
		}
	})
}

func BenchmarkNormFloat64(b *testing.B) {
	b.Run("fastrand", func(b *testing.B) {
		r := New(1)
		var s float64
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		_ = s
	})
	b.Run("stdlib", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var s float64
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		_ = s
	})
}

func BenchmarkIntn(b *testing.B) {
	b.Run("fastrand", func(b *testing.B) {
		r := New(1)
		var s int
		for i := 0; i < b.N; i++ {
			s += r.Intn(1000)
		}
		_ = s
	})
	b.Run("stdlib", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var s int
		for i := 0; i < b.N; i++ {
			s += r.Intn(1000)
		}
		_ = s
	})
}
