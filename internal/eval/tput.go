package eval

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mmtag/internal/ap"
	"mmtag/internal/channel"
	"mmtag/internal/dsp"
	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/phy"
	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

// This file is the demodulation-throughput accounting behind the
// BENCH "tput" suite (tags·symbols per second per core): the exact
// tag·symbol workload of the throughput-gated experiments, and the
// batched-demodulator microbenchmark. The workload counts reuse the
// experiments' own grid definitions (e3Mods, e9CancelGrid, ...), so
// the denominators cannot drift from what the experiments process.
//
// DESIGN.md: section 11 (batched demodulation).

// Shared workload definitions for E9/E11 (E3's live beside the
// experiment in experiments_phy.go).
var (
	e9CancelGrid = []float64{0, 10, 20, 30, 40, 50, 60}
	e9Payload    = []byte("cancellation sweep payload")
	e11RateGrid  = []float64{1, 5, 10, 20, 50, 100, 150, 200}
	e11Payload   = []byte("switch limit sweep payload")
)

// frameSymbols returns how many channel symbols one uncoded data frame
// with the given payload occupies for a constellation — preamble plus
// mapped frame bits, exactly the modulated symbol count of E9/E11.
func frameSymbols(c *phy.Constellation, payload []byte) (int64, error) {
	f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: payload}
	bits, err := f.EncodeBits(frame.Options{})
	if err != nil {
		return 0, err
	}
	bps := c.BitsPerSymbol()
	return 63 + int64((len(bits)+bps-1)/bps), nil
}

// TagSymbolWorkload returns the number of tag·symbols one regeneration
// of the experiment demodulates (or slices, for the symbol-level E3) —
// the denominator of its "tput" suite row.
func TagSymbolWorkload(id string) (int64, error) {
	switch id {
	case "E3":
		var total int64
		for _, m := range e3Mods {
			c, err := phy.NewConstellation(m.name, m.set.States())
			if err != nil {
				return 0, err
			}
			bps := c.BitsPerSymbol()
			for _, db := range e3EbN0DB {
				nBits := e3BitBudget(m.theory(rfmath.FromDB(db)))
				total += int64((nBits + bps - 1) / bps)
			}
		}
		return total, nil
	case "E9":
		set := vanatta.OOK()
		c, err := phy.NewConstellation(set.Name(), set.States())
		if err != nil {
			return 0, err
		}
		syms, err := frameSymbols(c, e9Payload)
		if err != nil {
			return 0, err
		}
		return syms * int64(len(e9CancelGrid)), nil
	case "E11":
		set := vanatta.BPSK()
		c, err := phy.NewConstellation(set.Name(), set.States())
		if err != nil {
			return 0, err
		}
		syms, err := frameSymbols(c, e11Payload)
		if err != nil {
			return 0, err
		}
		return syms * int64(len(e11RateGrid)), nil
	}
	return 0, fmt.Errorf("eval: no tag-symbol workload defined for %s", id)
}

// BatchMicro is one measurement of the fused batch demodulator: lanes
// concurrent tag waveforms swept through ap.Demodulator.DemodulateBatchTo.
type BatchMicro struct {
	Lanes      int    // waveforms per pass
	TagSymbols int64  // tag·symbols demodulated per pass
	NsPass     int64  // min wall ns per pass
	AllocsPass uint64 // steady-state allocs per pass (escaping frames)
	BytesPass  uint64 // steady-state bytes per pass
}

// RunBatchMicro measures DemodulateBatchTo over a batch of lanes OOK
// frame waveforms at a comfortably decodable SNR: reps timed groups of
// passes, keeping the minimum. Steady-state allocation figures come
// from MemStats deltas across a group, so pool warm-up amortizes out;
// what remains is the decoded frames escaping to the results.
func RunBatchMicro(lanes, reps int, seed int64) (*BatchMicro, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("eval: batch micro needs >= 1 lane, got %d", lanes)
	}
	if reps < 1 {
		reps = 1
	}
	const sps = 8
	set := vanatta.OOK()
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		return nil, err
	}
	dem, err := ap.NewDemodulator(c, 63, frame.Options{})
	if err != nil {
		return nil, err
	}
	f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: e9Payload}
	bits, err := f.EncodeBits(frame.Options{})
	if err != nil {
		return nil, err
	}
	symbols := append(dem.PreambleSymbolIndices(), c.MapBits(nil, bits)...)
	mod, err := vanatta.NewModulator(set, 10e6, 10e6*sps, 0)
	if err != nil {
		return nil, err
	}
	var rx dsp.Batch
	rx.Reset(lanes, len(symbols)*sps)
	for l := 0; l < lanes; l++ {
		mod.Reset()
		wave := mod.Waveform(rx.LaneCap(l)[:0], symbols)
		rng := fastrand.New(seed + int64(l))
		channel.AWGN(rng, wave, 1e-4)
		rx.SetLaneLen(l, len(wave))
	}

	res := dem.DemodulateBatchTo(nil, &rx, sps)
	for l, r := range res {
		if !r.OK() {
			return nil, fmt.Errorf("eval: batch micro lane %d failed to decode: %v", l, r.Err)
		}
	}

	// Each timed group runs enough passes to dominate timer noise;
	// allocation deltas over the group average out pool refills.
	const passes = 8
	m := &BatchMicro{
		Lanes:      lanes,
		TagSymbols: int64(lanes * len(symbols)),
		NsPass:     math.MaxInt64,
		AllocsPass: math.MaxUint64,
		BytesPass:  math.MaxUint64,
	}
	var ms runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.GC()
		dem.DemodulateBatchTo(res, &rx, sps) // refill pools GC just drained
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		for p := 0; p < passes; p++ {
			res = dem.DemodulateBatchTo(res, &rx, sps)
		}
		ns := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms)
		if per := ns / passes; per < m.NsPass {
			m.NsPass = per
		}
		if per := (ms.Mallocs - mallocs) / passes; per < m.AllocsPass {
			m.AllocsPass = per
		}
		if per := (ms.TotalAlloc - bytes) / passes; per < m.BytesPass {
			m.BytesPass = per
		}
	}
	return m, nil
}
