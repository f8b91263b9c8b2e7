package link

import (
	"fmt"
	"math"

	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/mac"
	"mmtag/internal/phy"
	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

// ebn0For maps a rate-bandwidth SNR to the linear Eb/N0 the symbol and
// waveform tiers simulate at, mirroring mac.Rate.BERAt: noise bandwidth
// equals the symbol rate, and coded rates see the modelled coding gain.
func ebn0For(r mac.Rate, snr float64) float64 {
	ebn0 := snr / float64(r.Mod.BitsPerSymbol)
	if r.Coded {
		ebn0 *= rfmath.FromDB(mac.CodingGainDB)
	}
	return ebn0
}

// airBitsFor returns the on-air bit count of a data frame carrying
// payloadBytes under rate r's coding setting — the frame geometry every
// tier prices identically.
func airBitsFor(r mac.Rate, payloadBytes int) int {
	return frame.AirBits(payloadBytes, frame.Options{Coded: r.Coded})
}

// Symbol is tier b: symbol-level Monte-Carlo over the tag alphabets via
// phy.MeasureBER, the reference measurement experiment E3 validates
// against the closed-form curves. It caches constellations per
// modulation; use one Symbol per goroutine.
type Symbol struct {
	consts map[string]*phy.Constellation
}

// NewSymbol returns a tier-b engine.
func NewSymbol() *Symbol {
	return &Symbol{consts: make(map[string]*phy.Constellation)}
}

// constellation resolves (and caches) the phy constellation for a tag
// alphabet name.
func (s *Symbol) constellation(name string) (*phy.Constellation, error) {
	if c, ok := s.consts[name]; ok {
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
	s.consts[name] = c
	return c, nil
}

// MeasureBER implements Engine via the phy symbol Monte-Carlo.
func (s *Symbol) MeasureBER(mod mac.Modulation, ebn0 float64, nBits int, rng fastrand.RNG) (phy.BERResult, error) {
	c, err := s.constellation(mod.Name)
	if err != nil {
		return phy.BERResult{}, err
	}
	return phy.MeasureBER(c, ebn0, nBits, rng)
}

// FrameSuccess implements Engine: the frame's on-air bits run through
// the symbol Monte-Carlo and the frame survives iff none flip — the
// same independence model tier c's PERFromBER closes in one formula.
func (s *Symbol) FrameSuccess(r mac.Rate, snr float64, payloadBytes int, rng fastrand.RNG) (bool, error) {
	ebn0 := ebn0For(r, snr)
	if math.IsNaN(ebn0) || ebn0 <= 0 {
		return false, nil
	}
	res, err := s.MeasureBER(r.Mod, ebn0, airBitsFor(r, payloadBytes), rng)
	if err != nil {
		return false, err
	}
	return res.Errors == 0, nil
}
