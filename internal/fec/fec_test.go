package fec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %#04x, want 0x29B1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Fatalf("CRC16(empty) = %#04x, want 0xFFFF", got)
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	rng.Read(data)
	orig := CRC16(data)
	// Any single-bit flip changes the checksum.
	for byteIdx := 0; byteIdx < len(data); byteIdx += 7 {
		for bit := 0; bit < 8; bit++ {
			data[byteIdx] ^= 1 << bit
			if CRC16(data) == orig {
				t.Fatalf("flip at %d.%d undetected", byteIdx, bit)
			}
			data[byteIdx] ^= 1 << bit
		}
	}
}

func TestHammingRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 * (int(nRaw)%32 + 1)
		data := randomBits(rng, n)
		code, err := HammingEncode(nil, data)
		if err != nil {
			return false
		}
		if len(code) != n/4*7 {
			return false
		}
		decoded, corrected, err := HammingDecode(nil, code)
		if err != nil || corrected != 0 {
			return false
		}
		for i := range data {
			if decoded[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingCorrectsAnySingleError(t *testing.T) {
	data := []byte{1, 0, 1, 1}
	code, _ := HammingEncode(nil, data)
	for pos := 0; pos < 7; pos++ {
		corrupted := append([]byte{}, code...)
		corrupted[pos] ^= 1
		decoded, corrected, err := HammingDecode(nil, corrupted)
		if err != nil {
			t.Fatal(err)
		}
		if corrected != 1 {
			t.Fatalf("flip at %d: corrected = %d, want 1", pos, corrected)
		}
		for i := range data {
			if decoded[i] != data[i] {
				t.Fatalf("flip at %d not corrected", pos)
			}
		}
	}
}

func TestHammingErrors(t *testing.T) {
	if _, err := HammingEncode(nil, make([]byte, 5)); err == nil {
		t.Fatal("non-multiple-of-4 must error")
	}
	if _, _, err := HammingDecode(nil, make([]byte, 6)); err == nil {
		t.Fatal("non-multiple-of-7 must error")
	}
}

func TestConvEncodeLength(t *testing.T) {
	data := randomBits(rand.New(rand.NewSource(2)), 100)
	code := ConvEncode(nil, data)
	if len(code) != 2*(100+ConvTailBits()) {
		t.Fatalf("coded length %d, want %d", len(code), 2*(100+6))
	}
}

func TestConvViterbiCleanRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		data := randomBits(rng, n)
		code := ConvEncode(nil, data)
		decoded, err := ViterbiDecode(code)
		if err != nil || len(decoded) != n {
			return false
		}
		for i := range data {
			if decoded[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestViterbiCorrectsScatteredErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randomBits(rng, 200)
	code := ConvEncode(nil, data)
	// Flip 5% of coded bits, well separated (the K=7 code corrects
	// isolated errors comfortably at this density).
	for i := 10; i < len(code); i += 40 {
		code[i] ^= 1
	}
	decoded, err := ViterbiDecode(code)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if decoded[i] != data[i] {
			t.Fatalf("scattered errors not corrected (bit %d)", i)
		}
	}
}

func TestViterbiSoftBeatsHard(t *testing.T) {
	// At a fixed channel quality, soft decisions must produce no more
	// errors than hard decisions (aggregated over trials).
	rng := rand.New(rand.NewSource(4))
	hardErrs, softErrs := 0, 0
	for trial := 0; trial < 30; trial++ {
		data := randomBits(rng, 150)
		code := ConvEncode(nil, data)
		soft := make([]float64, len(code))
		hard := make([]byte, len(code))
		for i, b := range code {
			level := float64(b) + rng.NormFloat64()*0.45
			soft[i] = level
			if level > 0.5 {
				hard[i] = 1
			}
		}
		hd, err := ViterbiDecode(hard)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := ViterbiDecodeSoft(soft)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if hd[i] != data[i] {
				hardErrs++
			}
			if sd[i] != data[i] {
				softErrs++
			}
		}
	}
	if hardErrs == 0 {
		t.Skip("channel too clean to compare") // should not happen at sigma 0.45
	}
	if softErrs > hardErrs {
		t.Fatalf("soft decoding (%d errors) worse than hard (%d)", softErrs, hardErrs)
	}
}

func TestViterbiErrors(t *testing.T) {
	if _, err := ViterbiDecode(make([]byte, 3)); err == nil {
		t.Fatal("odd length must error")
	}
	if _, err := ViterbiDecode(make([]byte, 4)); err == nil {
		t.Fatal("too-short stream must error")
	}
	if _, err := ViterbiDecodeSoft(make([]float64, 3)); err == nil {
		t.Fatal("odd soft length must error")
	}
}

func TestInterleaverRoundTrip(t *testing.T) {
	il, err := NewBlockInterleaver(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomBits(rng, il.BlockSize()*3)
		inter, err := il.Interleave(nil, data)
		if err != nil {
			return false
		}
		back, err := il.Deinterleave(nil, inter)
		if err != nil {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaverSpreadsBursts(t *testing.T) {
	il, _ := NewBlockInterleaver(8, 16)
	data := make([]byte, il.BlockSize())
	inter, _ := il.Interleave(nil, data)
	// Corrupt a burst of 8 consecutive interleaved bits.
	for i := 40; i < 48; i++ {
		inter[i] ^= 1
	}
	back, _ := il.Deinterleave(nil, inter)
	// After deinterleaving the errors must be spread: no two adjacent.
	for i := 1; i < len(back); i++ {
		if back[i] != 0 && back[i-1] != 0 {
			t.Fatal("burst not dispersed by interleaver")
		}
	}
}

func TestInterleaverErrors(t *testing.T) {
	if _, err := NewBlockInterleaver(0, 5); err == nil {
		t.Fatal("zero rows must error")
	}
	il, _ := NewBlockInterleaver(4, 4)
	if _, err := il.Interleave(nil, make([]byte, 5)); err == nil {
		t.Fatal("non-multiple length must error")
	}
	if _, err := il.Deinterleave(nil, make([]byte, 5)); err == nil {
		t.Fatal("non-multiple length must error")
	}
}

func TestScramblerRoundTripAndWhitening(t *testing.T) {
	s, err := NewScrambler(0x5D)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero input comes out ~half ones (whitened).
	zeros := make([]byte, 1000)
	scrambled := s.Apply(nil, zeros)
	ones := 0
	for _, b := range scrambled {
		ones += int(b)
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("scrambled ones density %d/1000, want ~500", ones)
	}
	// Descrambling from the same seed restores.
	s, _ = NewScrambler(0x5D)
	back := s.Apply(nil, scrambled)
	for i, b := range back {
		if b != 0 {
			t.Fatalf("descramble failed at %d", i)
		}
	}
}

func TestScramblerSeedValidation(t *testing.T) {
	if _, err := NewScrambler(0); err == nil {
		t.Fatal("zero seed must error")
	}
	if _, err := NewScrambler(0x80); err == nil {
		t.Fatal("seed with only bit 7 set masks to zero and must error")
	}
}

func BenchmarkViterbiDecode256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := randomBits(rng, 256)
	code := ConvEncode(nil, data)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecode(code); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvEncode256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := randomBits(rng, 256)
	dst := make([]byte, 0, 2*(256+6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = ConvEncode(dst[:0], data)
	}
}
