// Package fastrand is a devirtualized clone of math/rand's generator:
// the additive-lagged-Fibonacci source and the Rand helper methods in
// one concrete struct, with no Source interface between them. Every
// method is bit-identical to the corresponding method of
// rand.New(rand.NewSource(seed)) — same draws, same rejection loops,
// same stream — so hot paths can swap it in without perturbing any
// seeded experiment, while the compiler gets to inline the generator
// into the distribution code (the interface call per draw is most of
// what MeasureBER and AWGN pay the RNG for).
//
// RNG is the draw set the link tier and its kernels take. Both
// *rand.Rand and *Rand satisfy it, and the hot kernels (phy.MeasureBER,
// channel.AWGN) switch on its dynamic type: on a *Rand they run a fused
// body with the generator inlined, on a *rand.Rand a plain loop. Both
// consume the same draws in the same order, so which generator a
// caller hands in never changes a result, only its cost.
//
// The method bodies and the ziggurat tables are derived from Go's
// math/rand (rng.go, rand.go, normal.go), BSD-style license, Copyright
// 2009 The Go Authors. ExpFloat64 is intentionally absent: no hot path
// draws exponentials (internal/fault does, and stays on math/rand).
//
// DESIGN.md: section 11 (batched demodulation and hot-path RNG).
package fastrand

import (
	"math"
	"math/rand"
)

const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap
	rngMask = 1<<63 - 1
	rn      = 3.442619855899
)

// Rand is a concrete math/rand-compatible generator. Like rand.Rand it
// is not safe for concurrent use; per-worker code keeps its own.
type Rand struct {
	vec       [rngLen]int64
	tap, feed int32
	readVal   int64
	readPos   int8
}

// RNG is the set of draws the link engines and the Monte-Carlo kernels
// make: uniform floats, bounded integers, standard normals and bytes.
// *rand.Rand and *Rand implement it with identical streams for a given
// seed, and they are the only implementations the kernels accept:
// phy.MeasureBER and channel.AWGN panic on any other type. The kernels
// call methods only on the two concrete types, never through the
// interface, because a call through it would move every caller's
// generator to the heap. A *Rand a caller creates for one call then
// stays on the caller's stack.
type RNG interface {
	Float64() float64
	Intn(n int) int
	NormFloat64() float64
	Read(p []byte) (int, error)
}

var (
	_ RNG = (*Rand)(nil)
	_ RNG = (*rand.Rand)(nil)
)

// New returns a generator whose stream is bit-identical to
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// rngCooked is math/rand's precomputed warm-up table, recovered once
// at init by observational cloning: seeding a throwaway stdlib source
// sets vec[i] = u_i ^ cooked[i] where u_i depends only on the seed, so
// drawing one full register (after rngLen draws every slot has been
// overwritten exactly once, making the drawn values the post-draw
// state), undoing the additive recurrence to get the pre-draw
// register, and xoring off the recomputed u_i leaves the table. Direct
// seeding then costs one pass over seedPow instead of a clone per
// Seed; both are pinned against the stdlib stream in the package tests.
var rngCooked [rngLen]int64

// seedPow[i] holds the powers 48271^n mod 2^31-1 for the three Lehmer
// steps n = 21+3i, 22+3i, 23+3i that math/rand's seeding spends on
// register slot i (20 warm-up steps, then three per slot). Step n of
// the chain from x0 is x0 * 48271^n mod 2^31-1, so Seed computes every
// slot independently instead of walking the 1,841-step serial chain.
var seedPow [rngLen][3]uint64

func init() {
	// The chain from x0 = 1 is the powers themselves.
	x := int32(1)
	for i := 0; i < 20; i++ {
		x = seedrand(x)
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			x = seedrand(x)
			seedPow[i][j] = uint64(x)
		}
	}

	src := rand.NewSource(1).(rand.Source64)
	var drawn [rngLen]uint64
	for i := range drawn {
		drawn[i] = src.Uint64()
	}
	var vec [rngLen]int64
	// Post-draw state: draw k (1-indexed) wrote vec[(rngFeed-k) mod len].
	for k := 1; k <= rngLen; k++ {
		vec[(rngFeed+rngLen-k)%rngLen] = int64(drawn[k-1])
	}
	// Undo draws rngLen..1. When draw k is undone, every later draw has
	// been undone already, so vec[tap_k] again holds the value it had
	// when draw k read it (no draw in (k, k+rngFeed] writes that slot).
	for k := rngLen; k >= 1; k-- {
		feed := (rngFeed + rngLen - k) % rngLen
		tap := (rngLen - k) % rngLen
		vec[feed] = int64(drawn[k-1]) - vec[tap]
	}
	// Xor off seed 1's contribution.
	for i := range rngCooked {
		rngCooked[i] = seedWord(1, &seedPow[i]) ^ vec[i]
	}
}

// seedrand computes the next value in the Lehmer generator math/rand
// seeds its register with (Schrage's method, multiplier 48271).
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		c = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - c*hi
	if x < 0 {
		x += 1<<31 - 1
	}
	return x
}

// mulMod31 returns a*b mod 2^31-1 for a, b in [1, 2^31-1), folding the
// product by 2^31 ≡ 1. The first fold leaves t <= 2^32-2 and the
// second t <= 2^31-1; t never reaches 2^31-1 itself, because the
// modulus is prime and neither factor is a multiple of it, so no
// final subtraction is needed.
func mulMod31(a, b uint64) uint64 {
	const p = 1<<31 - 1
	t := a * b
	t = t&p + t>>31
	return t&p + t>>31
}

// seedWord is the seeding's pre-xor value of one register slot for the
// chain start x0: the slot's three Lehmer steps packed as math/rand
// packs them.
func seedWord(x0 uint64, pw *[3]uint64) int64 {
	u := int64(mulMod31(x0, pw[0])) << 40
	u ^= int64(mulMod31(x0, pw[1])) << 20
	u ^= int64(mulMod31(x0, pw[2]))
	return u
}

// Seed resets the generator to the exact state rand.NewSource(seed)
// starts in.
func (r *Rand) Seed(seed int64) {
	const int32max = 1<<31 - 1
	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	for i := range r.vec {
		r.vec[i] = seedWord(x0, &seedPow[i]) ^ rngCooked[i]
	}
	r.tap, r.feed = 0, rngFeed
	r.readVal, r.readPos = 0, 0
}

// Uint64 returns a pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Uint32 returns a pseudo-random 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int31n returns a pseudo-random number in [0, n) for n > 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Int63n returns a pseudo-random number in [0, n) for n > 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a pseudo-random number in [0, n) for n > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a pseudo-random number in [0.0, 1.0).
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this happens 1.04e-9 of the time
	}
	return f
}

// Read fills p with pseudo-random bytes, seven per Int63 draw, exactly
// as rand.Rand.Read does. It never returns an error.
func (r *Rand) Read(p []byte) (int, error) {
	pos := r.readPos
	val := r.readVal
	for n := 0; n < len(p); n++ {
		if pos == 0 {
			val = r.Int63()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	r.readPos = pos
	r.readVal = val
	return len(p), nil
}

// absInt32 is branchless: the ziggurat accept test feeds it a
// uniformly random sign, so a conditional form mispredicts half the
// time in the hot path.
func absInt32(i int32) uint32 {
	m := i >> 31
	return uint32((i ^ m) - m)
}

// NormFloat64 returns a standard normal pseudo-random number via the
// Marsaglia–Tsang ziggurat, bit-identical to rand.Rand.NormFloat64.
// The >99% accept path is kept small enough to inline into callers'
// loops; the base strip and wedge rejection live in normSlow.
func (r *Rand) NormFloat64() float64 {
	j := int32(r.Uint32()) // Possibly negative
	i := j & 0x7F
	x := float64(j) * float64(wn[i])
	if absInt32(j) < kn[i] {
		// This case should be hit better than 99% of the time.
		return x
	}
	return r.normSlow(j)
}

// Fused-kernel exports: NormFloat64 itself is too large to inline, so
// loops that cannot afford one call per Gaussian draw replicate its
// accept path inline —
//
//	j := int32(r.Uint32())
//	x := float64(j) * float64(fastrand.WN[j&0x7F])
//	if fastrand.AbsInt32(j) >= fastrand.KN[j&0x7F] { x = r.NormSlow(j) }
//
// — and fall into NormSlow (<1% of draws) otherwise. KN and WN are
// read-only copies of the ziggurat accept tables; mutating them breaks
// stream compatibility.
var (
	KN = kn
	WN = wn
)

// AbsInt32 is the ziggurat's |int32|, exported for inline accept tests.
func AbsInt32(i int32) uint32 { return absInt32(i) }

// Core is a register-resident view of the generator for fused kernels:
// Tap and Feed live in the caller's locals (so the compiler keeps them
// in registers across a tight draw loop instead of reloading Rand
// fields past every store), while Vec aliases the Rand's register.
// Detach with Core(), draw via Core methods, and reattach with
// SetCore() before handing the *Rand to anything else (NormSlow, other
// methods) — the Rand's own positions are stale while detached.
type Core struct {
	Vec       *[rngLen]int64
	Tap, Feed int32
}

// Core detaches a register view. See Core's doc for the protocol.
func (r *Rand) Core() Core { return Core{&r.vec, r.tap, r.feed} }

// SetCore reattaches a detached register view's positions.
func (r *Rand) SetCore(c Core) { r.tap, r.feed = c.Tap, c.Feed }

// Uint64 draws from the detached view, bit-identical to Rand.Uint64.
func (c *Core) Uint64() uint64 {
	c.Tap--
	if c.Tap < 0 {
		c.Tap += rngLen
	}
	c.Feed--
	if c.Feed < 0 {
		c.Feed += rngLen
	}
	x := c.Vec[c.Feed] + c.Vec[c.Tap]
	c.Vec[c.Feed] = x
	return uint64(x)
}

// Int63 draws from the detached view, bit-identical to Rand.Int63.
func (c *Core) Int63() int64 { return int64(c.Uint64() & rngMask) }

// Uint32 draws from the detached view, bit-identical to Rand.Uint32.
func (c *Core) Uint32() uint32 { return uint32(c.Int63() >> 31) }

// Int31 draws from the detached view, bit-identical to Rand.Int31.
func (c *Core) Int31() int32 { return int32(c.Int63() >> 32) }

// NormSlow finishes a NormFloat64 draw j that missed the inline accept
// test: base strip, wedge rejection, and the redraw loop.
func (r *Rand) NormSlow(j int32) float64 { return r.normSlow(j) }

func (r *Rand) normSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}

		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(r.Float64()) * (1.0 / rn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(r.Uint32())
	}
}

// Ziggurat tables for NormFloat64, copied verbatim from Go's
// math/rand/normal.go (BSD-style license, Copyright 2009 The Go
// Authors): any deviation would change which draws take the rejection
// paths and desynchronize the stream.
var kn = [128]uint32{
	0x76ad2212, 0x0, 0x600f1b53, 0x6ce447a6, 0x725b46a2,
	0x7560051d, 0x774921eb, 0x789a25bd, 0x799045c3, 0x7a4bce5d,
	0x7adf629f, 0x7b5682a6, 0x7bb8a8c6, 0x7c0ae722, 0x7c50cce7,
	0x7c8cec5b, 0x7cc12cd6, 0x7ceefed2, 0x7d177e0b, 0x7d3b8883,
	0x7d5bce6c, 0x7d78dd64, 0x7d932886, 0x7dab0e57, 0x7dc0dd30,
	0x7dd4d688, 0x7de73185, 0x7df81cea, 0x7e07c0a3, 0x7e163efa,
	0x7e23b587, 0x7e303dfd, 0x7e3beec2, 0x7e46db77, 0x7e51155d,
	0x7e5aabb3, 0x7e63abf7, 0x7e6c222c, 0x7e741906, 0x7e7b9a18,
	0x7e82adfa, 0x7e895c63, 0x7e8fac4b, 0x7e95a3fb, 0x7e9b4924,
	0x7ea0a0ef, 0x7ea5b00d, 0x7eaa7ac3, 0x7eaf04f3, 0x7eb3522a,
	0x7eb765a5, 0x7ebb4259, 0x7ebeeafd, 0x7ec2620a, 0x7ec5a9c4,
	0x7ec8c441, 0x7ecbb365, 0x7ece78ed, 0x7ed11671, 0x7ed38d62,
	0x7ed5df12, 0x7ed80cb4, 0x7eda175c, 0x7edc0005, 0x7eddc78e,
	0x7edf6ebf, 0x7ee0f647, 0x7ee25ebe, 0x7ee3a8a9, 0x7ee4d473,
	0x7ee5e276, 0x7ee6d2f5, 0x7ee7a620, 0x7ee85c10, 0x7ee8f4cd,
	0x7ee97047, 0x7ee9ce59, 0x7eea0eca, 0x7eea3147, 0x7eea3568,
	0x7eea1aab, 0x7ee9e071, 0x7ee98602, 0x7ee90a88, 0x7ee86d08,
	0x7ee7ac6a, 0x7ee6c769, 0x7ee5bc9c, 0x7ee48a67, 0x7ee32efc,
	0x7ee1a857, 0x7edff42f, 0x7ede0ffa, 0x7edbf8d9, 0x7ed9ab94,
	0x7ed7248d, 0x7ed45fae, 0x7ed1585c, 0x7ece095f, 0x7eca6ccb,
	0x7ec67be2, 0x7ec22eee, 0x7ebd7d1a, 0x7eb85c35, 0x7eb2c075,
	0x7eac9c20, 0x7ea5df27, 0x7e9e769f, 0x7e964c16, 0x7e8d44ba,
	0x7e834033, 0x7e781728, 0x7e6b9933, 0x7e5d8a1a, 0x7e4d9ded,
	0x7e3b737a, 0x7e268c2f, 0x7e0e3ff5, 0x7df1aa5d, 0x7dcf8c72,
	0x7da61a1e, 0x7d72a0fb, 0x7d30e097, 0x7cd9b4ab, 0x7c600f1a,
	0x7ba90bdc, 0x7a722176, 0x77d664e5,
}
var wn = [128]float32{
	1.7290405e-09, 1.2680929e-10, 1.6897518e-10, 1.9862688e-10,
	2.2232431e-10, 2.4244937e-10, 2.601613e-10, 2.7611988e-10,
	2.9073963e-10, 3.042997e-10, 3.1699796e-10, 3.289802e-10,
	3.4035738e-10, 3.5121603e-10, 3.616251e-10, 3.7164058e-10,
	3.8130857e-10, 3.9066758e-10, 3.9975012e-10, 4.08584e-10,
	4.1719309e-10, 4.2559822e-10, 4.338176e-10, 4.418672e-10,
	4.497613e-10, 4.5751258e-10, 4.651324e-10, 4.7263105e-10,
	4.8001775e-10, 4.87301e-10, 4.944885e-10, 5.015873e-10,
	5.0860405e-10, 5.155446e-10, 5.2241467e-10, 5.2921934e-10,
	5.359635e-10, 5.426517e-10, 5.4928817e-10, 5.5587696e-10,
	5.624219e-10, 5.6892646e-10, 5.753941e-10, 5.818282e-10,
	5.882317e-10, 5.946077e-10, 6.00959e-10, 6.072884e-10,
	6.135985e-10, 6.19892e-10, 6.2617134e-10, 6.3243905e-10,
	6.386974e-10, 6.449488e-10, 6.511956e-10, 6.5744005e-10,
	6.6368433e-10, 6.699307e-10, 6.7618144e-10, 6.824387e-10,
	6.8870465e-10, 6.949815e-10, 7.012715e-10, 7.075768e-10,
	7.1389966e-10, 7.202424e-10, 7.266073e-10, 7.329966e-10,
	7.394128e-10, 7.4585826e-10, 7.5233547e-10, 7.58847e-10,
	7.653954e-10, 7.719835e-10, 7.7861395e-10, 7.852897e-10,
	7.920138e-10, 7.987892e-10, 8.0561924e-10, 8.125073e-10,
	8.194569e-10, 8.2647167e-10, 8.3355556e-10, 8.407127e-10,
	8.479473e-10, 8.55264e-10, 8.6266755e-10, 8.7016316e-10,
	8.777562e-10, 8.8545243e-10, 8.932582e-10, 9.0117996e-10,
	9.09225e-10, 9.174008e-10, 9.2571584e-10, 9.341788e-10,
	9.427997e-10, 9.515889e-10, 9.605579e-10, 9.697193e-10,
	9.790869e-10, 9.88676e-10, 9.985036e-10, 1.0085882e-09,
	1.0189509e-09, 1.0296151e-09, 1.0406069e-09, 1.0519566e-09,
	1.063698e-09, 1.0758702e-09, 1.0885183e-09, 1.1016947e-09,
	1.1154611e-09, 1.1298902e-09, 1.1450696e-09, 1.1611052e-09,
	1.1781276e-09, 1.1962995e-09, 1.2158287e-09, 1.2369856e-09,
	1.2601323e-09, 1.2857697e-09, 1.3146202e-09, 1.347784e-09,
	1.3870636e-09, 1.4357403e-09, 1.5008659e-09, 1.6030948e-09,
}
var fn = [128]float32{
	1, 0.9635997, 0.9362827, 0.9130436, 0.89228165, 0.87324303,
	0.8555006, 0.8387836, 0.8229072, 0.8077383, 0.793177,
	0.7791461, 0.7655842, 0.7524416, 0.73967725, 0.7272569,
	0.7151515, 0.7033361, 0.69178915, 0.68049186, 0.6694277,
	0.658582, 0.6479418, 0.63749546, 0.6272325, 0.6171434,
	0.6072195, 0.5974532, 0.58783704, 0.5783647, 0.56903,
	0.5598274, 0.5507518, 0.54179835, 0.5329627, 0.52424055,
	0.5156282, 0.50712204, 0.49871865, 0.49041483, 0.48220766,
	0.4740943, 0.46607214, 0.4581387, 0.45029163, 0.44252872,
	0.43484783, 0.427247, 0.41972435, 0.41227803, 0.40490642,
	0.39760786, 0.3903808, 0.3832238, 0.37613547, 0.36911446,
	0.3621595, 0.35526937, 0.34844297, 0.34167916, 0.33497685,
	0.3283351, 0.3217529, 0.3152294, 0.30876362, 0.30235484,
	0.29600215, 0.28970486, 0.2834622, 0.2772735, 0.27113807,
	0.2650553, 0.25902456, 0.2530453, 0.24711695, 0.241239,
	0.23541094, 0.22963232, 0.2239027, 0.21822165, 0.21258877,
	0.20700371, 0.20146611, 0.19597565, 0.19053204, 0.18513499,
	0.17978427, 0.17447963, 0.1692209, 0.16400786, 0.15884037,
	0.15371831, 0.14864157, 0.14361008, 0.13862377, 0.13368265,
	0.12878671, 0.12393598, 0.119130544, 0.11437051, 0.10965602,
	0.104987256, 0.10036444, 0.095787846, 0.0912578, 0.08677467,
	0.0823389, 0.077950984, 0.073611505, 0.06932112, 0.06508058,
	0.06089077, 0.056752663, 0.0526674, 0.048636295, 0.044660863,
	0.040742867, 0.03688439, 0.033087887, 0.029356318,
	0.025693292, 0.022103304, 0.018592102, 0.015167298,
	0.011839478, 0.008624485, 0.005548995, 0.0026696292,
}
