// Package dsp implements the complex-baseband digital signal processing
// kernels of the mmTag receive chain: planned radix-2 FFTs (one lane or
// an interleaved batch of lanes), cross-correlation against a preamble
// (direct, FFT and product-table paths), the fused offset-immune
// preamble search, signal energy, and the scratch arenas and lane
// batches they run on.
//
// Signals are []complex128 sample slices at an implicit sample rate that
// callers carry alongside. All transforms are deterministic. Each
// kernel has a single entry point, XTo(dst, ...), that writes into dst
// and grows it only when its capacity is short: pass nil for a fresh
// output slice. Kernels that need scratch borrow it from an *Arena
// argument, and a nil arena allocates the scratch fresh.
//
// DESIGN.md: section 3 (module inventory); the waveform level of section 6
// runs on these kernels.
package dsp

import (
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
