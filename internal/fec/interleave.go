package fec

import "fmt"

// BlockInterleaver permutes bits by writing row-wise into a rows×cols
// matrix and reading column-wise, spreading burst errors across
// codewords so the Viterbi decoder sees them as isolated errors.
type BlockInterleaver struct {
	rows, cols int
}

// NewBlockInterleaver creates an interleaver over blocks of rows*cols
// bits.
func NewBlockInterleaver(rows, cols int) (*BlockInterleaver, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("fec: interleaver dimensions must be positive, got %dx%d", rows, cols)
	}
	return &BlockInterleaver{rows: rows, cols: cols}, nil
}

// BlockSize returns rows*cols.
func (b *BlockInterleaver) BlockSize() int { return b.rows * b.cols }

// Interleave permutes data, whose length must be a multiple of
// BlockSize, appending to dst.
func (b *BlockInterleaver) Interleave(dst, data []byte) ([]byte, error) {
	n := b.BlockSize()
	if len(data)%n != 0 {
		return nil, fmt.Errorf("fec: data length %d not a multiple of block size %d", len(data), n)
	}
	for blk := 0; blk < len(data); blk += n {
		for c := 0; c < b.cols; c++ {
			for r := 0; r < b.rows; r++ {
				dst = append(dst, data[blk+r*b.cols+c])
			}
		}
	}
	return dst, nil
}

// Deinterleave inverts Interleave.
func (b *BlockInterleaver) Deinterleave(dst, data []byte) ([]byte, error) {
	return deinterleave(b, dst, data)
}

// DeinterleaveSoft inverts Interleave for soft-decision levels, so a
// receiver can carry per-bit confidence through to the Viterbi decoder.
func (b *BlockInterleaver) DeinterleaveSoft(dst, data []float64) ([]float64, error) {
	return deinterleave(b, dst, data)
}

// deinterleave is the one body behind Deinterleave and
// DeinterleaveSoft: data, whose length must be a multiple of
// BlockSize, is read back row-wise, appending to dst.
func deinterleave[T byte | float64](b *BlockInterleaver, dst, data []T) ([]T, error) {
	n := b.BlockSize()
	if len(data)%n != 0 {
		return nil, fmt.Errorf("fec: data length %d not a multiple of block size %d", len(data), n)
	}
	for blk := 0; blk < len(data); blk += n {
		out := make([]T, n)
		i := 0
		for c := 0; c < b.cols; c++ {
			for r := 0; r < b.rows; r++ {
				out[r*b.cols+c] = data[blk+i]
				i++
			}
		}
		dst = append(dst, out...)
	}
	return dst, nil
}

// Scrambler is the multiplicative LFSR scrambler (x^7 + x^4 + 1, the
// 802.11 polynomial) that whitens payload bits so the tag's switching
// waveform has no long constant runs (which would collide with the AP's
// DC-notch filtering).
type Scrambler struct {
	state byte // 7-bit LFSR state
	seed  byte
}

// NewScrambler creates a scrambler with a nonzero 7-bit seed.
func NewScrambler(seed byte) (*Scrambler, error) {
	seed &= 0x7F
	if seed == 0 {
		return nil, fmt.Errorf("fec: scrambler seed must be nonzero")
	}
	return &Scrambler{state: seed, seed: seed}, nil
}

// Apply XORs the LFSR sequence into bits, appending to dst. Scrambling
// and descrambling are the same operation (run Reset between them).
func (s *Scrambler) Apply(dst, bits []byte) []byte {
	for _, b := range bits {
		// Feedback: x^7 + x^4 + 1 -> new bit = s6 ^ s3.
		fb := ((s.state >> 6) ^ (s.state >> 3)) & 1
		s.state = (s.state<<1 | fb) & 0x7F
		dst = append(dst, (b&1)^fb)
	}
	return dst
}
