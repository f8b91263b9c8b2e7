package par

// Stream is a value-type splitmix64 generator for hot paths that cannot
// afford a *rand.Rand (whose source alone is a ~5 KB heap object). A
// Stream is 8 bytes, lives happily on the stack, and draws from the
// same Derive-keyed seed space as Rand, so per-shard Streams inherit
// the scheduling-independence guarantee: the sequence depends only on
// (root, shard), never on which worker runs the shard.
//
// Stream and Rand produce different sequences for the same (root,
// shard); pick one per stream coordinate and stick with it.
type Stream struct{ state uint64 }

// NewStream returns the value-type RNG for a shard, keyed exactly like
// Rand via Derive.
func NewStream(root int64, shard uint64) Stream {
	return Stream{state: uint64(Derive(root, shard))}
}

// Uint64 advances the splitmix64 sequence.
func (s *Stream) Uint64() uint64 {
	s.state += goldenGamma
	z := s.state
	z = (z ^ (z >> 30)) * mixMul1
	z = (z ^ (z >> 27)) * mixMul2
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
