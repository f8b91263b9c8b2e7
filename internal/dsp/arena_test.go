package dsp

import "testing"

func TestArenaReusesBuffers(t *testing.T) {
	a := new(Arena)
	b1 := a.Complex(100)
	p1 := &b1[:1][0]
	a.PutComplex(b1)
	b2 := a.Complex(90) // same bucket (2^7): must come from the free list
	if &b2[:1][0] != p1 {
		t.Fatal("put buffer not recycled for a same-bucket borrow")
	}
	if len(b2) != 90 {
		t.Fatalf("recycled buffer length %d, want 90", len(b2))
	}
}

func TestArenaBucketCapacity(t *testing.T) {
	a := new(Arena)
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 1000, 4096} {
		buf := a.Complex(n)
		if len(buf) != n {
			t.Fatalf("Complex(%d) length %d", n, len(buf))
		}
		if cap(buf) < n {
			t.Fatalf("Complex(%d) cap %d < n", n, cap(buf))
		}
		a.PutComplex(buf)
	}
}

func TestArenaZeroed(t *testing.T) {
	a := new(Arena)
	buf := a.Complex(64)
	for i := range buf {
		buf[i] = 1 + 2i // dirty it
	}
	a.PutComplex(buf)
	z := a.ComplexZeroed(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("ComplexZeroed[%d] = %v", i, v)
		}
	}
}

func TestArenaForeignCapacity(t *testing.T) {
	// A non-power-of-two foreign slice lands in the bucket its capacity
	// fully covers, so later borrows still satisfy cap >= n.
	a := new(Arena)
	a.PutComplex(make([]complex128, 100)) // cap 100 -> bucket 6 (>= 64)
	got := a.Complex(64)
	if cap(got) < 64 {
		t.Fatalf("borrow after foreign put: cap %d < 64", cap(got))
	}
	if cap(got) != 100 {
		t.Fatalf("expected the foreign buffer back, got cap %d", cap(got))
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	buf := a.Complex(16)
	if len(buf) != 16 {
		t.Fatalf("nil arena Complex length %d", len(buf))
	}
	a.PutComplex(buf) // must not panic
	if f := a.Float(8); len(f) != 8 {
		t.Fatalf("nil arena Float length %d", len(f))
	}
	a.PutFloat(nil)
	a.PutInts(nil)
	a.PutBytes(nil)
}

func TestArenaTypedListsIndependent(t *testing.T) {
	a := new(Arena)
	c := a.Complex(32)
	f := a.Float(32)
	is := a.Ints(32)
	bs := a.Bytes(32)
	a.PutComplex(c)
	a.PutFloat(f)
	a.PutInts(is)
	a.PutBytes(bs)
	if got := a.Complex(32); cap(got) < 32 {
		t.Fatal("complex list broken")
	}
	if got := a.Float(32); cap(got) < 32 {
		t.Fatal("float list broken")
	}
	if got := a.Ints(32); cap(got) < 32 {
		t.Fatal("int list broken")
	}
	if got := a.Bytes(32); cap(got) < 32 {
		t.Fatal("byte list broken")
	}
}

func TestBucketInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 63, 64, 65, 1 << 20} {
		b := bucketFor(n)
		if 1<<b < n {
			t.Fatalf("bucketFor(%d) = %d: bucket too small", n, b)
		}
	}
	for _, c := range []int{1, 2, 3, 64, 100, 1 << 20} {
		b := homeBucket(c)
		if b < 0 || 1<<b > c {
			t.Fatalf("homeBucket(%d) = %d: bucket promises more than cap", c, b)
		}
	}
}

func TestGrowComplex(t *testing.T) {
	base := make([]complex128, 0, 64)
	out := GrowComplex(base, 32)
	if len(out) != 32 || &out[:1][0] != &base[:1][0] {
		t.Fatal("GrowComplex must reuse sufficient capacity")
	}
	out = GrowComplex(base, 128)
	if len(out) != 128 {
		t.Fatalf("GrowComplex grow length %d", len(out))
	}
}
