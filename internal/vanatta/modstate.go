package vanatta

import (
	"fmt"
	"math"
	"math/cmplx"
)

// StateSet is a backscatter modulation alphabet: the set of termination
// reflection coefficients Γ the tag's switch network can present, together
// with the bit labelling. The reflected baseband symbol is the incident
// carrier multiplied by Γ.
type StateSet struct {
	name   string
	states []complex128 // Γ per symbol index
	bits   int          // bits per symbol
}

// Name returns the modulation name ("ook", "bpsk", ...).
func (s StateSet) Name() string { return s.name }

// BitsPerSymbol returns the number of bits one state encodes.
func (s StateSet) BitsPerSymbol() int { return s.bits }

// Size returns the alphabet size.
func (s StateSet) Size() int { return len(s.states) }

// Gamma returns the reflection coefficient for symbol index i.
// It panics when i is out of range: symbol indices come from the bit
// mapper and an invalid one is a programming error.
func (s StateSet) Gamma(i int) complex128 {
	if i < 0 || i >= len(s.states) {
		panic(fmt.Sprintf("vanatta: symbol index %d out of range [0,%d)", i, len(s.states)))
	}
	return s.states[i]
}

// States returns a copy of the Γ alphabet.
func (s StateSet) States() []complex128 {
	out := make([]complex128, len(s.states))
	copy(out, s.states)
	return out
}

// MeanReflectedPower returns the average |Γ|^2 over the alphabet: the
// backscatter modulation efficiency factor that enters the link budget
// (equiprobable symbols).
func (s StateSet) MeanReflectedPower() float64 {
	if len(s.states) == 0 {
		return 0
	}
	sum := 0.0
	for _, g := range s.states {
		sum += real(g)*real(g) + imag(g)*imag(g)
	}
	return sum / float64(len(s.states))
}

// MinDistance returns the minimum Euclidean distance between distinct Γ
// states, the first-order predictor of symbol error behaviour.
func (s StateSet) MinDistance() float64 {
	min := math.Inf(1)
	for i := range s.states {
		for j := i + 1; j < len(s.states); j++ {
			if d := cmplx.Abs(s.states[i] - s.states[j]); d < min {
				min = d
			}
		}
	}
	return min
}

// OOK returns the on-off-keying alphabet: absorb (matched termination,
// Γ=0) or reflect (short circuit, Γ=1). Index order: bit 0 -> absorb,
// bit 1 -> reflect.
func OOK() StateSet {
	return StateSet{name: "ook", states: []complex128{0, 1}, bits: 1}
}

// BPSK returns the binary phase-shift alphabet implemented by switching
// between two delay lines λ/2 apart: Γ ∈ {+1, −1}.
func BPSK() StateSet {
	return StateSet{name: "bpsk", states: []complex128{1, -1}, bits: 1}
}

// QPSK returns the quadrature alphabet from four delay lines λ/4 apart,
// Gray-labelled so adjacent states differ in one bit:
// 00 -> 1, 01 -> j, 11 -> −1, 10 -> −j.
func QPSK() StateSet {
	return StateSet{name: "qpsk", states: []complex128{1, 1i, -1i, -1}, bits: 2}
}

// PSK8 returns the eight-phase alphabet from eight delay lines λ/8
// apart, Gray-labelled so adjacent phases differ in one bit.
func PSK8() StateSet {
	// Gray sequence of 3-bit values around the circle.
	gray := []int{0, 1, 3, 2, 6, 7, 5, 4}
	states := make([]complex128, 8)
	for pos, g := range gray {
		phi := 2 * math.Pi * float64(pos) / 8
		states[g] = cmplx.Exp(complex(0, phi))
	}
	return StateSet{name: "8psk", states: states, bits: 3}
}

// QAM16 returns a 16-state alphabet combining four phases with four
// amplitude levels (multi-level loads), normalized so the largest |Γ| is
// 1. Labelling is Gray per axis.
func QAM16() StateSet {
	// Standard 16-QAM grid at levels {-3,-1,1,3}, scaled so the corner
	// states sit at |Γ| = 1 (passive constraint). The real part is
	// selected by the low two bits, the imaginary part by the high two,
	// both Gray mapped.
	levels := []float64{-3, -1, 1, 3}
	states := make([]complex128, 16)
	scale := 1 / (3 * math.Sqrt2) // corner magnitude 3*sqrt(2) -> 1
	for b := 0; b < 16; b++ {
		iBits := b & 3
		qBits := b >> 2
		states[b] = complex(levels[grayIndex(iBits)]*scale, levels[grayIndex(qBits)]*scale)
	}
	return StateSet{name: "16qam", states: states, bits: 4}
}

// grayIndex maps a 2-bit Gray code to its level index.
func grayIndex(g int) int {
	switch g {
	case 0:
		return 0
	case 1:
		return 1
	case 3:
		return 2
	case 2:
		return 3
	}
	panic("vanatta: invalid 2-bit gray code")
}

// ByName returns the StateSet for a modulation name.
func ByName(name string) (StateSet, error) {
	switch name {
	case "ook":
		return OOK(), nil
	case "bpsk":
		return BPSK(), nil
	case "qpsk":
		return QPSK(), nil
	case "8psk":
		return PSK8(), nil
	case "16qam":
		return QAM16(), nil
	}
	return StateSet{}, fmt.Errorf("vanatta: unknown modulation %q", name)
}

// Modulator converts a symbol-index stream into the tag's time-domain
// reflection coefficient Γ(t), including the finite rise time of the RF
// switches. Transitions follow a first-order (RC) trajectory between
// states, which is what bounds the usable symbol rate.
type Modulator struct {
	set        StateSet
	riseTime   float64 // 10-90% switch rise time, seconds
	sampleRate float64 // waveform sample rate, Hz
	symbolRate float64 // symbols per second

	sps   int     // samples per symbol
	alpha float64 // per-sample RC step factor
	cur   complex128
}

// NewModulator builds a waveform modulator. sampleRate must be an integer
// multiple of symbolRate with at least 2 samples per symbol.
func NewModulator(set StateSet, symbolRate, sampleRate, riseTime float64) (*Modulator, error) {
	if symbolRate <= 0 || sampleRate <= 0 {
		return nil, fmt.Errorf("vanatta: rates must be positive")
	}
	ratio := sampleRate / symbolRate
	sps := int(ratio + 0.5)
	if math.Abs(ratio-float64(sps)) > 1e-9 || sps < 2 {
		return nil, fmt.Errorf("vanatta: sample rate must be an integer multiple (>=2) of symbol rate, got ratio %g", ratio)
	}
	if riseTime < 0 {
		return nil, fmt.Errorf("vanatta: rise time must be >= 0, got %g", riseTime)
	}
	m := &Modulator{
		set:        set,
		riseTime:   riseTime,
		sampleRate: sampleRate,
		symbolRate: symbolRate,
		sps:        sps,
	}
	if riseTime == 0 {
		m.alpha = 1
	} else {
		// 10-90% rise time of a first-order system: tr = ln(9) * tau.
		tau := riseTime / math.Log(9)
		m.alpha = 1 - math.Exp(-1/(sampleRate*tau))
	}
	// Start settled at the first state so a leading constant symbol run
	// has no artificial edge.
	if set.Size() > 0 {
		m.cur = set.Gamma(0)
	}
	return m, nil
}

// Reset re-settles the modulator at symbol 0's state.
func (m *Modulator) Reset() { m.cur = m.set.Gamma(0) }

// Waveform appends the Γ(t) samples for the symbol-index stream to dst
// and returns it. Each symbol occupies the modulator's samples per
// symbol; the trajectory relaxes exponentially toward the target state.
func (m *Modulator) Waveform(dst []complex128, symbols []int) []complex128 {
	// Pre-grow once: the append-growth copies otherwise dominate long
	// waveform generation.
	if need := len(dst) + len(symbols)*m.sps; cap(dst) < need {
		grown := make([]complex128, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	// The RC step is a real scalar, so the relaxation separates into
	// independent I/Q recurrences — half the multiplies of the complex
	// product cur += complex(alpha,0)*(target-cur), with bit-identical
	// results (the dropped terms are exact-zero products; see
	// TestWaveformMatchesComplexStep).
	a := m.alpha
	cr, ci := real(m.cur), imag(m.cur)
	for _, s := range symbols {
		t := m.set.Gamma(s)
		tr, ti := real(t), imag(t)
		for i := 0; i < m.sps; i++ {
			cr += a * (tr - cr)
			ci += a * (ti - ci)
			dst = append(dst, complex(cr, ci))
		}
	}
	m.cur = complex(cr, ci)
	return dst
}

// SettledFraction returns the fraction of each symbol period by which a
// transition has settled to within 5% of its target, a scalar proxy for
// inter-symbol interference: below ~0.5 the constellation collapses.
func (m *Modulator) SettledFraction() float64 {
	if m.alpha >= 1 {
		return 1
	}
	// Samples needed for (1-alpha)^k < 0.05.
	k := math.Log(0.05) / math.Log(1-m.alpha)
	frac := 1 - k/float64(m.sps)
	if frac < 0 {
		return 0
	}
	return frac
}

// MaxSymbolRate returns the highest symbol rate (Hz) at which a switch
// with the given rise time still settles to within 5% inside half a
// symbol period — the design rule the reconstruction uses for the
// "switch-limited data rate" experiments.
func MaxSymbolRate(riseTime float64) float64 {
	if riseTime <= 0 {
		return math.Inf(1)
	}
	tau := riseTime / math.Log(9)
	settle := -math.Log(0.05) * tau // time to reach 5%
	return 0.5 / settle
}
