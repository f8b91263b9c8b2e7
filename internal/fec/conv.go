package fec

import (
	"fmt"
	"math"
)

// Rate-1/2, constraint-length-7 convolutional code with the industry
// standard generator polynomials 171/133 (octal) — the code used by
// 802.11, DVB and deep-space links, decoded with a Viterbi decoder
// (hard or soft decision).
const (
	convK     = 7
	numStates = 1 << (convK - 1) // 64
	g0        = 0o171
	g1        = 0o133
)

// parity returns the XOR of the bits of x.
func parity(x int) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// ConvEncode encodes data bits (0/1) with the rate-1/2 K=7 code,
// flushing with K-1 zero tail bits so the decoder terminates in state 0.
// The output length is 2*(len(data)+6) bits, appended to dst.
func ConvEncode(dst, data []byte) []byte {
	state := 0
	emit := func(bit byte) {
		reg := state | int(bit&1)<<(convK-1)
		dst = append(dst, parity(reg&g0), parity(reg&g1))
		state = reg >> 1
	}
	for _, b := range data {
		emit(b)
	}
	for i := 0; i < convK-1; i++ {
		emit(0)
	}
	return dst
}

// ViterbiDecode decodes a hard-decision bit stream produced by
// ConvEncode (length divisible by 2, at least the 12 tail bits) and
// returns the data bits. The traceback assumes the encoder's zero
// flush, so the returned length is len(code)/2 - 6.
func ViterbiDecode(code []byte) ([]byte, error) {
	soft := make([]float64, len(code))
	for i, b := range code {
		if b != 0 {
			soft[i] = 1
		}
	}
	return viterbi(soft)
}

// ViterbiDecodeSoft decodes soft-decision metrics: llr[i] in [0, 1] is
// the estimated probability-like level of coded bit i (0 = strong 0,
// 1 = strong 1). Euclidean branch metrics give the standard ~2 dB gain
// over hard decisions.
func ViterbiDecodeSoft(level []float64) ([]byte, error) {
	return viterbi(level)
}

// viterbi checks that the coded stream is even and at least the
// encoder's zero-flush tail long, then runs the add-compare-select
// recursion over its symbol pairs with Euclidean metrics against
// expected bits {0,1}.
func viterbi(level []float64) ([]byte, error) {
	if len(level)%2 != 0 {
		return nil, fmt.Errorf("fec: coded length must be even, got %d", len(level))
	}
	nSteps := len(level) / 2
	if nSteps < convK-1 {
		return nil, fmt.Errorf("fec: coded stream too short (%d symbol pairs)", nSteps)
	}
	const inf = math.MaxFloat64 / 4
	metric := make([]float64, numStates)
	next := make([]float64, numStates)
	for i := 1; i < numStates; i++ {
		metric[i] = inf // encoder starts in state 0
	}
	// survivors[t][s] = input bit that led to state s at step t+1, plus
	// predecessor implied by the trellis structure.
	type pred struct {
		state int
		bit   byte
	}
	surv := make([][]pred, nSteps)

	// Precompute transitions: from state s with input b, the shift
	// register is reg = s | b<<6; outputs parity(reg&g0), parity(reg&g1);
	// next state reg>>1.
	type trans struct {
		next int
		out0 float64
		out1 float64
	}
	var tr [numStates][2]trans
	for s := 0; s < numStates; s++ {
		for b := 0; b < 2; b++ {
			reg := s | b<<(convK-1)
			tr[s][b] = trans{
				next: reg >> 1,
				out0: float64(parity(reg & g0)),
				out1: float64(parity(reg & g1)),
			}
		}
	}

	for t := 0; t < nSteps; t++ {
		r0, r1 := level[2*t], level[2*t+1]
		for i := range next {
			next[i] = inf
		}
		surv[t] = make([]pred, numStates)
		for s := 0; s < numStates; s++ {
			if metric[s] >= inf {
				continue
			}
			for b := 0; b < 2; b++ {
				x := tr[s][b]
				d0 := r0 - x.out0
				d1 := r1 - x.out1
				m := metric[s] + d0*d0 + d1*d1
				if m < next[x.next] {
					next[x.next] = m
					surv[t][x.next] = pred{state: s, bit: byte(b)}
				}
			}
		}
		metric, next = next, metric
	}

	// Traceback from state 0 (the zero flush guarantees it).
	state := 0
	bits := make([]byte, nSteps)
	for t := nSteps - 1; t >= 0; t-- {
		p := surv[t][state]
		bits[t] = p.bit
		state = p.state
	}
	// Drop the K-1 tail bits.
	return bits[:nSteps-(convK-1)], nil
}

// ConvTailBits returns the number of zero tail bits appended by the
// encoder.
func ConvTailBits() int { return convK - 1 }
