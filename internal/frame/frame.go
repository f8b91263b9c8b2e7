// Package frame defines the mmTag air frame: a PN preamble for detection
// and timing, a Hamming-protected header, a payload that is scrambled
// and optionally convolutionally coded, and a CRC-16 trailer.
//
// The framer deals in bits ([]byte of 0/1 values) so that the PHY layer
// is free to map them onto whichever backscatter alphabet the link
// adaptation selected.
//
// DESIGN.md: section 1 (air interface reconstruction) and section 3 (module
// inventory).
package frame

import (
	"errors"
	"fmt"

	"mmtag/internal/fec"
)

// Type discriminates frame purposes in the MAC protocol.
type Type uint8

// Frame types.
const (
	TypeData  Type = iota // tag payload data
	TypeProbe             // discovery probe response
	TypeAck               // acknowledgement
	TypePoll              // poll response metadata
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeProbe:
		return "probe"
	case TypeAck:
		return "ack"
	case TypePoll:
		return "poll"
	default:
		return fmt.Sprintf("type-%d", uint8(t))
	}
}

// MaxPayload is the largest payload an mmTag frame can carry, bounded by
// the 12-bit length field.
const MaxPayload = 4095

// headerBits is the raw header size: 2 type + 8 tag + 8 seq + 12 length
// + 2 reserved = 32 bits (Hamming-coded to 56 on air).
const headerBits = 32

// codedHeaderBits is the on-air header size after Hamming(7,4).
const codedHeaderBits = headerBits / 4 * 7

// Options configures encoding.
type Options struct {
	// Coded enables the rate-1/2 convolutional code + interleaver over
	// the payload and CRC.
	Coded bool
	// ScramblerSeed seeds the payload scrambler; 0x5D if zero.
	ScramblerSeed byte
}

func (o Options) seed() byte {
	if o.ScramblerSeed&0x7F == 0 {
		return 0x5D
	}
	return o.ScramblerSeed & 0x7F
}

// Frame is one mmTag air frame.
type Frame struct {
	Type    Type
	TagID   uint8
	Seq     uint8
	Payload []byte
}

// Errors returned by Decode.
var (
	ErrHeaderCRC  = errors.New("frame: header parity failure")
	ErrPayloadCRC = errors.New("frame: payload CRC mismatch")
	ErrTruncated  = errors.New("frame: bit stream truncated")
)

// bytesToBits expands bytes MSB-first.
func bytesToBits(dst []byte, data []byte) []byte {
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			dst = append(dst, (b>>i)&1)
		}
	}
	return dst
}

// bitsToBytes packs bits MSB-first; len(bits) must be a multiple of 8.
func bitsToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("frame: bit count %d not a multiple of 8", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b != 0 {
			out[i/8] |= 1 << (7 - i%8)
		}
	}
	return out, nil
}

// EncodeBits serializes the frame into air bits (excluding the
// preamble, which the PHY prepends). Layout:
//
//	header (32 bits Hamming-coded to 56)
//	body   (payload ++ CRC16, scrambled; conv-coded+interleaved if Coded)
func (f *Frame) EncodeBits(opts Options) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("frame: payload %d bytes exceeds maximum %d", len(f.Payload), MaxPayload)
	}
	// Header fields, MSB-first.
	hdr := make([]byte, 0, headerBits)
	put := func(v uint, bits int) {
		for i := bits - 1; i >= 0; i-- {
			hdr = append(hdr, byte((v>>i)&1))
		}
	}
	put(uint(f.Type)&3, 2)
	put(uint(f.TagID), 8)
	put(uint(f.Seq), 8)
	put(uint(len(f.Payload)), 12)
	put(0, 2) // reserved
	codedHdr, err := fec.HammingEncode(nil, hdr)
	if err != nil {
		return nil, err
	}

	// Body: payload bytes + CRC16 over payload.
	crc := fec.CRC16(f.Payload)
	body := append(append([]byte{}, f.Payload...), byte(crc>>8), byte(crc))
	bodyBits := bytesToBits(nil, body)

	// Scramble.
	scr, err := fec.NewScrambler(opts.seed())
	if err != nil {
		return nil, err
	}
	bodyBits = scr.Apply(nil, bodyBits)

	if opts.Coded {
		coded := fec.ConvEncode(nil, bodyBits)
		// Pad to the interleaver block and record padding implicitly:
		// the decoder derives the coded length from the header length
		// field, so padding is deterministic.
		il := bodyInterleaver()
		pad := (il.BlockSize() - len(coded)%il.BlockSize()) % il.BlockSize()
		coded = append(coded, make([]byte, pad)...)
		coded, err = il.Interleave(nil, coded)
		if err != nil {
			return nil, err
		}
		bodyBits = coded
	}
	return append(codedHdr, bodyBits...), nil
}

// bodyInterleaver returns the fixed payload interleaver geometry.
func bodyInterleaver() *fec.BlockInterleaver {
	il, err := fec.NewBlockInterleaver(8, 16)
	if err != nil {
		panic("frame: interleaver construction cannot fail: " + err.Error())
	}
	return il
}

// codedBodyBits returns the on-air body length in bits for a payload of
// n bytes under opts.
func codedBodyBits(n int, opts Options) int {
	if !opts.Coded {
		return (n + 2) * 8 // payload + CRC16
	}
	coded := convBodyBits(n)
	block := bodyInterleaver().BlockSize()
	pad := (block - coded%block) % block
	return coded + pad
}

// convBodyBits returns the convolutional encoder's output length for a
// payload of n bytes: the coded body before interleaver padding.
func convBodyBits(n int) int {
	return 2 * ((n+2)*8 + fec.ConvTailBits())
}

// AirBits returns the total number of bits EncodeBits will produce for a
// payload of n bytes.
func AirBits(n int, opts Options) int {
	return codedHeaderBits + codedBodyBits(n, opts)
}

// DecodeBits parses a frame from air bits. The bit slice must begin at
// the first header bit (frame sync is the PHY's job) and contain at
// least the whole frame; trailing bits are ignored. It returns the
// decoded frame and the number of bits consumed.
func DecodeBits(bits []byte, opts Options) (*Frame, int, error) {
	if len(bits) < codedHeaderBits {
		return nil, 0, ErrTruncated
	}
	f, payLen, total, err := decodeHeader(bits[:codedHeaderBits], len(bits), opts)
	if err != nil {
		return nil, 0, err
	}
	body := bits[codedHeaderBits:total]
	if opts.Coded {
		deinter, err := bodyInterleaver().Deinterleave(nil, body)
		if err != nil {
			return nil, 0, err
		}
		// Strip the interleaver padding before Viterbi.
		body, err = fec.ViterbiDecode(deinter[:convBodyBits(payLen)])
		if err != nil {
			return nil, 0, err
		}
	}
	return decodeBody(f, body, payLen, total, opts)
}

// DecodeBitsSoft parses a coded frame from per-bit soft levels (0 =
// confident zero, 1 = confident one, 0.5 = erased), recovering the
// standard ~2 dB soft-decision Viterbi gain over DecodeBits. The header
// is decided hard (it is Hamming-protected, not convolutional); the
// body levels flow through deinterleaving into the soft Viterbi
// decoder. opts.Coded must be set — an uncoded body has no soft path.
func DecodeBitsSoft(levels []float64, opts Options) (*Frame, int, error) {
	if !opts.Coded {
		return nil, 0, fmt.Errorf("frame: soft decoding requires the coded mode")
	}
	if len(levels) < codedHeaderBits {
		return nil, 0, ErrTruncated
	}
	var hard [codedHeaderBits]byte
	for i, v := range levels[:codedHeaderBits] {
		if v > 0.5 {
			hard[i] = 1
		}
	}
	f, payLen, total, err := decodeHeader(hard[:], len(levels), opts)
	if err != nil {
		return nil, 0, err
	}
	deinter, err := bodyInterleaver().DeinterleaveSoft(nil, levels[codedHeaderBits:total])
	if err != nil {
		return nil, 0, err
	}
	body, err := fec.ViterbiDecodeSoft(deinter[:convBodyBits(payLen)])
	if err != nil {
		return nil, 0, err
	}
	return decodeBody(f, body, payLen, total, opts)
}

// decodeHeader Hamming-decodes the coded header bits and parses the
// header fields. avail is the number of air bits the caller holds; the
// frame's total air length must fit in it. It returns the frame (no
// payload yet), the payload length in bytes and the total air length.
func decodeHeader(coded []byte, avail int, opts Options) (*Frame, int, int, error) {
	hdr, _, err := fec.HammingDecode(nil, coded)
	if err != nil {
		return nil, 0, 0, err
	}
	get := func(off, n int) uint {
		v := uint(0)
		for i := 0; i < n; i++ {
			v = v<<1 | uint(hdr[off+i])
		}
		return v
	}
	f := &Frame{
		Type:  Type(get(0, 2)),
		TagID: uint8(get(2, 8)),
		Seq:   uint8(get(10, 8)),
	}
	payLen := int(get(18, 12))
	if get(30, 2) != 0 {
		// The reserved bits double as a weak header checksum: Hamming
		// corrects single errors, so surviving damage shows up here.
		return nil, 0, 0, ErrHeaderCRC
	}
	total := codedHeaderBits + codedBodyBits(payLen, opts)
	if avail < total {
		return nil, 0, 0, ErrTruncated
	}
	return f, payLen, total, nil
}

// decodeBody finishes f from its decoded body bits: descramble, pack
// into bytes, check the CRC16 and copy the payload out.
func decodeBody(f *Frame, body []byte, payLen, total int, opts Options) (*Frame, int, error) {
	scr, err := fec.NewScrambler(opts.seed())
	if err != nil {
		return nil, 0, err
	}
	raw, err := bitsToBytes(scr.Apply(nil, body))
	if err != nil {
		return nil, 0, err
	}
	if len(raw) < payLen+2 {
		return nil, 0, ErrTruncated
	}
	payload := raw[:payLen]
	gotCRC := uint16(raw[payLen])<<8 | uint16(raw[payLen+1])
	if gotCRC != fec.CRC16(payload) {
		return nil, 0, ErrPayloadCRC
	}
	f.Payload = append([]byte{}, payload...)
	return f, total, nil
}

// Preamble returns the n-bit PN preamble (0/1 values) generated by a
// 7-bit maximal-length LFSR, identical at AP and tag. The sequence has
// the sharp autocorrelation needed for frame sync.
func Preamble(n int) []byte {
	state := byte(0x5A)
	out := make([]byte, n)
	for i := range out {
		fb := ((state >> 6) ^ (state >> 5)) & 1 // x^7 + x^6 + 1
		state = (state<<1 | fb) & 0x7F
		out[i] = fb
	}
	return out
}
