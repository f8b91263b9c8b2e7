package link

import (
	"fmt"
	"math"
	"math/bits"

	"mmtag/internal/ap"
	"mmtag/internal/channel"
	"mmtag/internal/dsp"
	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/mac"
	"mmtag/internal/phy"
	"mmtag/internal/vanatta"
)

// waveformSPS is the oversampling factor of the tier-a chain. Four
// samples per symbol is enough for the integrate-and-dump receiver at
// the ideal (zero rise time) modulator setting the engine uses; the
// rise-time physics itself is experiment E11's subject, not the
// ladder's.
const waveformSPS = 4

// waveformSymbolRate is the nominal symbol rate the tier-a modulators
// run at. With a zero rise time the waveform shape is rate-invariant,
// so any rate serves; 10 MHz matches the discovery probe order.
const waveformSymbolRate = 10e6

// waveformPreambleLen is the preamble length of tier-a frames (the
// standard 63-symbol m-sequence the demodulator correlates against).
const waveformPreambleLen = 63

// Waveform is tier a: the full waveform DSP chain. Bits modulate a
// vanatta reflection-coefficient waveform, per-sample AWGN is added at
// the requested operating point, and reception runs integrate-and-dump
// plus slicing (for BER) or the complete AP demodulator — sync, channel
// estimation, decision, CRC — for whole frames. Caches are per
// modulation; use one Waveform per goroutine.
type Waveform struct {
	consts map[string]*phy.Constellation
	mods   map[string]*vanatta.Modulator
	demods map[string]*ap.Demodulator
	wave   []complex128 // scratch waveform buffer
	syms   []int        // scratch symbol buffer

	// Batched frame-path scratch (StageFrame/FlushFrames, batch.go).
	stage    FrameBatch        // FrameSuccess's one-trial staging area
	flushIdx []int             // trial indices of the group being flushed
	flushRx  dsp.Batch         // gathered lanes of that group
	flushRes []ap.UplinkResult // its batched demodulation results
}

// NewWaveform returns a tier-a engine.
func NewWaveform() *Waveform {
	return &Waveform{
		consts: make(map[string]*phy.Constellation),
		mods:   make(map[string]*vanatta.Modulator),
		demods: make(map[string]*ap.Demodulator),
	}
}

func (w *Waveform) constellation(name string) (*phy.Constellation, error) {
	if c, ok := w.consts[name]; ok {
		return c, nil
	}
	set, err := vanatta.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		return nil, err
	}
	w.consts[name] = c
	return c, nil
}

func (w *Waveform) modulator(name string) (*vanatta.Modulator, error) {
	if m, ok := w.mods[name]; ok {
		m.Reset()
		return m, nil
	}
	set, err := vanatta.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	m, err := vanatta.NewModulator(set, waveformSymbolRate, waveformSymbolRate*waveformSPS, 0)
	if err != nil {
		return nil, err
	}
	w.mods[name] = m
	return m, nil
}

func (w *Waveform) demodulator(name string, coded bool) (*ap.Demodulator, error) {
	key := name
	if coded {
		key += "+coded"
	}
	if d, ok := w.demods[key]; ok {
		return d, nil
	}
	c, err := w.constellation(name)
	if err != nil {
		return nil, err
	}
	d, err := ap.NewDemodulator(c, waveformPreambleLen, frame.Options{Coded: coded})
	if err != nil {
		return nil, err
	}
	w.demods[key] = d
	return d, nil
}

// MeasureBER implements Engine at waveform fidelity: random bits pack
// into symbols, the modulator renders Γ(t), AWGN lands on every sample
// at the power that puts the post-integrate-and-dump operating point at
// the requested Eb/N0, and the dumped symbols are sliced and compared.
// The RNG draw order (all bit draws, then the per-sample noise pairs)
// is fixed, so results depend only on the rng stream.
func (w *Waveform) MeasureBER(mod mac.Modulation, ebn0 float64, nBits int, rng fastrand.RNG) (phy.BERResult, error) {
	if ebn0 <= 0 || math.IsNaN(ebn0) {
		return phy.BERResult{}, fmt.Errorf("link: Eb/N0 must be positive, got %g", ebn0)
	}
	if nBits <= 0 {
		return phy.BERResult{}, fmt.Errorf("link: bit count must be positive, got %d", nBits)
	}
	c, err := w.constellation(mod.Name)
	if err != nil {
		return phy.BERResult{}, err
	}
	m, err := w.modulator(mod.Name)
	if err != nil {
		return phy.BERResult{}, err
	}
	bps := c.BitsPerSymbol()
	nSym := (nBits + bps - 1) / bps
	syms := w.syms[:0]
	sym, fill := 0, 0
	for i := 0; i < nBits; i++ {
		sym = sym<<1 | rng.Intn(2)
		fill++
		if fill == bps {
			syms = append(syms, sym)
			sym, fill = 0, 0
		}
	}
	if fill > 0 {
		syms = append(syms, sym<<(bps-fill))
	}
	w.syms = syms

	wave := m.Waveform(w.wave[:0], syms)
	w.wave = wave
	// Integrate-and-dump averages sps samples, dividing the noise power
	// by sps; pre-scale so the dumped symbol sits at Es/N0 = ebn0*bps.
	es := c.MeanPower()
	n0 := es / (ebn0 * float64(bps))
	channel.AWGN(rng, wave, n0*waveformSPS)

	rem := nBits - (nSym-1)*bps
	errs := 0
	inv := complex(1.0/waveformSPS, 0)
	for i, s := range syms {
		var acc complex128
		for k := 0; k < waveformSPS; k++ {
			acc += wave[i*waveformSPS+k]
		}
		d := c.Nearest(acc * inv)
		diff := uint(s ^ d)
		if i == nSym-1 && rem < bps {
			diff >>= uint(bps - rem)
		}
		errs += bits.OnesCount(diff)
	}
	return phy.BERResult{Bits: nBits, Errors: errs}, nil
}

// FrameSuccess implements Engine with the complete chain: a real data
// frame is encoded (with the rate's coding setting), prefixed by the
// sync preamble, modulated, perturbed at the SNR operating point, and
// handed to the AP demodulator; success is a CRC-clean decode. Unlike
// the cheaper tiers this pays sync and channel-estimation losses, which
// is exactly why strong links deserve it. It is one StageFrame and one
// FlushFrames on the engine's own staging batch, so a lone trial and a
// batched one run the same code.
func (w *Waveform) FrameSuccess(r mac.Rate, snr float64, payloadBytes int, rng fastrand.RNG) (bool, error) {
	b := &w.stage
	b.Reset()
	if err := w.StageFrame(b, r, snr, payloadBytes, rng); err != nil {
		return false, err
	}
	var ok [1]bool
	out, err := w.FlushFrames(b, ok[:0])
	return out[0], err
}
