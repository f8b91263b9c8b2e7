package frame

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, coded := range []bool{false, true} {
		opts := Options{Coded: coded}
		f := func(seed int64, payLenRaw uint16, tagID, seq uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			payLen := int(payLenRaw) % 300
			payload := make([]byte, payLen)
			rng.Read(payload)
			in := &Frame{Type: TypeData, TagID: tagID, Seq: seq, Payload: payload}
			bits, err := in.EncodeBits(opts)
			if err != nil {
				return false
			}
			if len(bits) != AirBits(payLen, opts) {
				return false
			}
			out, consumed, err := DecodeBits(bits, opts)
			if err != nil || consumed != len(bits) {
				return false
			}
			return out.Type == in.Type && out.TagID == in.TagID &&
				out.Seq == in.Seq && bytes.Equal(out.Payload, in.Payload)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("coded=%v: %v", coded, err)
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	f := &Frame{Type: TypeAck, TagID: 7, Seq: 3}
	bits, err := f.EncodeBits(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeBits(bits, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 || out.Type != TypeAck {
		t.Fatalf("got %+v", out)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	f := &Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := f.EncodeBits(Options{}); err == nil {
		t.Fatal("oversize payload must error")
	}
	// Exactly max is fine.
	f.Payload = make([]byte, MaxPayload)
	if _, err := f.EncodeBits(Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	f := &Frame{Type: TypeData, Payload: []byte("hello")}
	bits, _ := f.EncodeBits(Options{})
	for _, cut := range []int{0, 10, 55, len(bits) - 1} {
		if _, _, err := DecodeBits(bits[:cut], Options{}); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err %v, want ErrTruncated", cut, err)
		}
	}
}

func TestDecodeTrailingBitsIgnored(t *testing.T) {
	f := &Frame{Type: TypePoll, TagID: 1, Payload: []byte{1, 2, 3}}
	bits, _ := f.EncodeBits(Options{})
	n := len(bits)
	bits = append(bits, make([]byte, 100)...)
	out, consumed, err := DecodeBits(bits, Options{})
	if err != nil || consumed != n {
		t.Fatalf("consumed %d err %v, want %d nil", consumed, err, n)
	}
	if !bytes.Equal(out.Payload, []byte{1, 2, 3}) {
		t.Fatal("payload mismatch")
	}
}

func TestPayloadCorruptionDetected(t *testing.T) {
	f := &Frame{Type: TypeData, TagID: 5, Payload: []byte("payload under test")}
	bits, _ := f.EncodeBits(Options{})
	// Flip one payload bit (uncoded mode: direct hit).
	bits[60] ^= 1
	if _, _, err := DecodeBits(bits, Options{}); !errors.Is(err, ErrPayloadCRC) {
		t.Fatalf("err %v, want ErrPayloadCRC", err)
	}
}

func TestHeaderSingleBitErrorCorrected(t *testing.T) {
	f := &Frame{Type: TypeData, TagID: 0xAB, Seq: 9, Payload: []byte("x")}
	bits, _ := f.EncodeBits(Options{})
	// Hamming corrects any single error within each 7-bit header block.
	for pos := 0; pos < 56; pos++ {
		mutated := append([]byte{}, bits...)
		mutated[pos] ^= 1
		out, _, err := DecodeBits(mutated, Options{})
		if err != nil {
			t.Fatalf("header bit %d: %v", pos, err)
		}
		if out.TagID != 0xAB || out.Seq != 9 {
			t.Fatalf("header bit %d: fields corrupted", pos)
		}
	}
}

func TestCodedModeCorrectsPayloadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payload := make([]byte, 64)
	rng.Read(payload)
	f := &Frame{Type: TypeData, TagID: 2, Payload: payload}
	bits, err := f.EncodeBits(Options{Coded: true})
	if err != nil {
		t.Fatal(err)
	}
	// Flip scattered bits in the coded body (beyond the 56-bit header).
	for i := 80; i < len(bits); i += 97 {
		bits[i] ^= 1
	}
	out, _, err := DecodeBits(bits, Options{Coded: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Fatal("coded frame failed to correct scattered errors")
	}
}

func TestCodedModeCorrectsBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	payload := make([]byte, 64)
	rng.Read(payload)
	f := &Frame{Type: TypeData, Payload: payload}
	bits, _ := f.EncodeBits(Options{Coded: true})
	// An 8-bit burst in the body: the interleaver spreads it so Viterbi
	// can fix it.
	for i := 200; i < 208; i++ {
		bits[i] ^= 1
	}
	out, _, err := DecodeBits(bits, Options{Coded: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Fatal("burst not corrected")
	}
}

func TestScramblerSeedMismatchFails(t *testing.T) {
	f := &Frame{Type: TypeData, Payload: []byte("seeded")}
	bits, _ := f.EncodeBits(Options{ScramblerSeed: 0x11})
	if _, _, err := DecodeBits(bits, Options{ScramblerSeed: 0x22}); err == nil {
		t.Fatal("wrong descrambler seed must fail the CRC")
	}
	if _, _, err := DecodeBits(bits, Options{ScramblerSeed: 0x11}); err != nil {
		t.Fatalf("matching seed failed: %v", err)
	}
}

func TestAirBitsMatchesEncoding(t *testing.T) {
	for _, coded := range []bool{false, true} {
		for _, n := range []int{0, 1, 17, 255} {
			f := &Frame{Payload: make([]byte, n)}
			bits, err := f.EncodeBits(Options{Coded: coded})
			if err != nil {
				t.Fatal(err)
			}
			if got := AirBits(n, Options{Coded: coded}); got != len(bits) {
				t.Fatalf("coded=%v n=%d: AirBits %d, encoded %d", coded, n, got, len(bits))
			}
		}
	}
}

func TestCodedOverheadRatio(t *testing.T) {
	// Coded mode roughly doubles the body.
	plain := AirBits(256, Options{})
	coded := AirBits(256, Options{Coded: true})
	ratio := float64(coded-56) / float64(plain-56)
	if ratio < 1.9 || ratio > 2.2 {
		t.Fatalf("coded overhead ratio %g, want ~2", ratio)
	}
}

func TestPreambleProperties(t *testing.T) {
	p := Preamble(127)
	// Balanced: a maximal-length 7-bit LFSR emits 64 ones per period.
	ones := 0
	for _, b := range p {
		ones += int(b)
	}
	if ones != 64 {
		t.Fatalf("ones %d, want 64", ones)
	}
	// Deterministic.
	q := Preamble(127)
	if !bytes.Equal(p, q) {
		t.Fatal("preamble must be deterministic")
	}
}

func TestPreambleAutocorrelation(t *testing.T) {
	// The BPSK preamble autocorrelation must be sharply peaked: any
	// circular shift correlates near zero compared to lag 0.
	n := 127
	s := make([]float64, n)
	for i, b := range Preamble(n) {
		s[i] = 1 - 2*float64(b)
	}
	corr := func(lag int) float64 {
		acc := 0.0
		for i := 0; i < n; i++ {
			acc += s[i] * s[(i+lag)%n]
		}
		return acc
	}
	peak := corr(0)
	if peak != float64(n) {
		t.Fatalf("lag-0 autocorrelation %g, want %d", peak, n)
	}
	for lag := 1; lag < n; lag++ {
		if v := corr(lag); v > float64(n)/8 {
			t.Fatalf("autocorrelation at lag %d = %g too high", lag, v)
		}
	}
}

func TestTypeString(t *testing.T) {
	if TypeData.String() != "data" || TypeProbe.String() != "probe" ||
		TypeAck.String() != "ack" || TypePoll.String() != "poll" {
		t.Fatal("type names")
	}
	if Type(9).String() != "type-9" {
		t.Fatal("unknown type name")
	}
}

func BenchmarkEncodeCoded256(b *testing.B) {
	payload := make([]byte, 256)
	f := &Frame{Type: TypeData, Payload: payload}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.EncodeBits(Options{Coded: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCoded256(b *testing.B) {
	payload := make([]byte, 256)
	f := &Frame{Type: TypeData, Payload: payload}
	bits, _ := f.EncodeBits(Options{Coded: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBits(bits, Options{Coded: true}); err != nil {
			b.Fatal(err)
		}
	}
}
