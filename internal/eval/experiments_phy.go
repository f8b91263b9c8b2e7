package eval

import (
	"fmt"
	"math"
	"math/rand"

	"mmtag/internal/ap"
	"mmtag/internal/channel"
	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/phy"
	"mmtag/internal/rfmath"
	"mmtag/internal/vanatta"
)

// e3BERvsEbN0 is an indivisible grid: one RNG stream deliberately
// threads through every (modulation, Eb/N0) cell in row order, so
// splitting it would change the published numbers. It runs as a single
// shard and parallelizes only against its sibling experiments. The
// stream is a *fastrand.Rand, so the cells run MeasureBER's fused
// body — bit-identical to the historical rand.New + MeasureBER
// pairing.
// e3Mods, e3EbN0DB and e3BitBudget are package-level so the throughput
// accounting in tput.go counts exactly the symbols the experiment
// processes (see TagSymbolWorkload) — one definition, no drift.
type e3Mod struct {
	name   string
	set    vanatta.StateSet
	theory func(float64) float64
}

var e3Mods = []e3Mod{
	{"ook", vanatta.OOK(), rfmath.BEROOK},
	{"bpsk", vanatta.BPSK(), rfmath.BERBPSK},
	{"qpsk", vanatta.QPSK(), rfmath.BERQPSK},
	{"8psk", vanatta.PSK8(), func(e float64) float64 { return rfmath.BERMPSK(8, e) }},
	{"16qam", vanatta.QAM16(), func(e float64) float64 { return rfmath.BERMQAM(16, e) }},
}

var e3EbN0DB = []float64{2, 4, 6, 8, 10}

// e3BitBudget sizes one E3 cell's Monte-Carlo run: enough bits to see
// ~60 errors at the theoretical BER, within fixed bounds.
func e3BitBudget(wantBER float64) int {
	nBits := 60000
	if wantBER < 1e-3 {
		nBits = int(60 / wantBER)
	}
	if nBits > 1_500_000 {
		nBits = 1_500_000
	}
	return nBits
}

func e3BERvsEbN0(x Exec, seed int64) (*Table, error) {
	rng := fastrand.New(seed)
	mods := e3Mods
	t := &Table{
		ID:     "E3",
		Title:  "Measured vs closed-form BER on AWGN",
		Header: []string{"mod", "ebn0_dB", "ber_measured", "ber_theory", "ratio"},
	}
	err := x.runGrid(t, 1, func(int) ([]row, error) {
		var rows []row
		for _, m := range mods {
			c, err := phy.NewConstellation(m.name, m.set.States())
			if err != nil {
				return nil, err
			}
			for _, db := range e3EbN0DB {
				ebn0 := rfmath.FromDB(db)
				want := m.theory(ebn0)
				nBits := e3BitBudget(want)
				res, err := phy.MeasureBER(c, ebn0, nBits, rng)
				if err != nil {
					return nil, err
				}
				got := res.Rate()
				ratio := 0.0
				if want > 0 {
					ratio = got / want
				}
				rows = append(rows, row{m.name, db, got, want, ratio})
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// e9Cancellation's trial grid is the cancellation-depth axis; each
// shard has always seeded its own RNG from the depth, so the sharded
// rows are bit-identical to the historical serial loop.
func e9Cancellation(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	arr, err := tb.tagArray(0)
	if err != nil {
		return nil, err
	}
	const distance = 2.0
	const isolationDB = 30.0
	link := tb.link(arr, distance, 0, 1)
	echoW, err := link.ReceivedPowerW()
	if err != nil {
		return nil, err
	}

	set := vanatta.OOK()
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E9",
		Title: "Uplink decode vs analog SI cancellation depth (8-bit ADC with AGC, 2 m)",
		Header: []string{"cancel_dB", "residual_si_dBm", "echo_below_si_dB",
			"sync_score", "evm", "decoded"},
		Notes: []string{"AGC sets the ADC full scale to the composite signal; weak cancellation leaves the echo under the quantization floor"},
	}
	grid := e9CancelGrid
	err = x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		cancelDB := grid[shard]
		rng := fastrand.New(seed + int64(cancelDB))
		residualW := channel.SelfInterferencePowerW(tb.TxPowerW, isolationDB+cancelDB)
		// Normalize the residual SI to amplitude 1; the echo scales
		// relative to it.
		echoAmp := complex(0, 0)
		if residualW > 0 {
			echoAmp = complex(math.Sqrt(echoW/residualW), 0)
		}

		apx, err := ap.New(ap.Config{ADCBits: 8})
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
		mod, err := vanatta.NewModulator(set, 10e6, 80e6, tb.SwitchRiseTime)
		if err != nil {
			return nil, err
		}
		wave := mod.Waveform(nil, symbols)
		noiseW := apx.NoisePowerW(10e6)
		noiseRel := 0.0
		if residualW > 0 {
			noiseRel = noiseW / residualW
		}
		for i := range wave {
			wave[i] = wave[i]*echoAmp + complex(0.9, 0.3) // residual SI at ~unit amplitude
		}
		channel.AWGN(rng, wave, noiseRel)
		// AGC: the converter full scale tracks the composite peak.
		peak := 0.0
		for _, v := range wave {
			if a := math.Hypot(real(v), imag(v)); a > peak {
				peak = a
			}
		}
		quant := apx.QuantizeTo(wave, wave, peak)
		res := dem.Demodulate(quant, 8)

		return []row{{cancelDB, rfmath.DBm(residualW), rfmath.DB(echoW / residualW),
			res.SyncScore, res.EVM, fmt.Sprintf("%v", res.OK())}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// e11SwitchLimit shards the waveform sweep over the symbol-rate axis
// (per-rate RNG seeding, as always); the closed-form design-rule table
// is too cheap to shard.
func e11SwitchLimit(x Exec, tb *Testbed, seed int64) ([]*Table, error) {
	tb = tb.orDefault()
	set := vanatta.BPSK()
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		return nil, err
	}
	sweep := &Table{
		ID:     "E11",
		Title:  fmt.Sprintf("Constellation quality vs symbol rate (rise time %.0f ns)", tb.SwitchRiseTime*1e9),
		Header: []string{"symbol_rate_MHz", "settled_fraction", "evm", "decoded"},
	}
	payload := e11Payload
	grid := e11RateGrid
	err = x.runGrid(sweep, len(grid), func(shard int) ([]row, error) {
		rateMHz := grid[shard]
		rng := fastrand.New(seed + int64(rateMHz))
		symbolRate := rateMHz * 1e6
		dem, err := ap.NewDemodulator(c, 63, frame.Options{})
		if err != nil {
			return nil, err
		}
		f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: payload}
		bits, err := f.EncodeBits(frame.Options{})
		if err != nil {
			return nil, err
		}
		symbols := append(dem.PreambleSymbolIndices(), c.MapBits(nil, bits)...)
		mod, err := vanatta.NewModulator(set, symbolRate, symbolRate*8, tb.SwitchRiseTime)
		if err != nil {
			return nil, err
		}
		wave := mod.Waveform(nil, symbols)
		for i := range wave {
			wave[i] = wave[i]*0.01 + complex(0.7, 0.2)
		}
		channel.AWGN(rng, wave, 1e-8)
		res := dem.Demodulate(wave, 8)
		return []row{{rateMHz, mod.SettledFraction(), res.EVM, fmt.Sprintf("%v", res.OK())}}, nil
	})
	if err != nil {
		return nil, err
	}

	classes := &Table{
		ID:     "E11b",
		Title:  "Design-rule max symbol rate vs switch rise time",
		Header: []string{"rise_time_ns", "max_symbol_rate_MHz"},
	}
	for _, ns := range []float64{1, 2, 5, 10, 20, 50} {
		classes.AddRow(ns, vanatta.MaxSymbolRate(ns*1e-9)/1e6)
	}
	return []*Table{sweep, classes}, nil
}

// e12CodedPER's trial grid is the SNR axis — the suite's most
// expensive experiment, and the one that profits most from sharding.
func e12CodedPER(x Exec, seed int64) (*Table, error) {
	const trials = 60
	const payloadLen = 256
	t := &Table{
		ID:     "E12",
		Title:  "Frame error rate vs channel SNR (256 B frames, BPSK)",
		Header: []string{"esn0_dB", "per_uncoded", "per_coded_hard", "per_coded_soft"},
		Notes:  []string{"Gaussian soft levels at the BPSK operating point; hard receivers threshold the same levels"},
	}
	hardBits := func(levels []float64) []byte {
		out := make([]byte, len(levels))
		for i, v := range levels {
			if v > 0.5 {
				out[i] = 1
			}
		}
		return out
	}
	grid := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		db := grid[shard]
		esn0 := rfmath.FromDB(db)
		// BPSK in 0/1 level space: unit separation, hard-decision error
		// Q(0.5/sigma) = Q(sqrt(2 Es/N0)).
		sigma := 0.5 / math.Sqrt(2*esn0)
		var failUncoded, failHard, failSoft int
		rng := rand.New(rand.NewSource(seed + int64(db)))
		for i := 0; i < trials; i++ {
			payload := make([]byte, payloadLen)
			rng.Read(payload)
			f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: payload}

			// Uncoded path.
			plainBits, err := f.EncodeBits(frame.Options{})
			if err != nil {
				return nil, err
			}
			plainLevels := make([]float64, len(plainBits))
			for j, b := range plainBits {
				plainLevels[j] = float64(b) + rng.NormFloat64()*sigma
			}
			if _, _, err := frame.DecodeBits(hardBits(plainLevels), frame.Options{}); err != nil {
				failUncoded++
			}

			// Coded path: one noise realization, two receivers.
			codedBits, err := f.EncodeBits(frame.Options{Coded: true})
			if err != nil {
				return nil, err
			}
			levels := make([]float64, len(codedBits))
			for j, b := range codedBits {
				levels[j] = float64(b) + rng.NormFloat64()*sigma
			}
			if _, _, err := frame.DecodeBits(hardBits(levels), frame.Options{Coded: true}); err != nil {
				failHard++
			}
			if _, _, err := frame.DecodeBitsSoft(levels, frame.Options{Coded: true}); err != nil {
				failSoft++
			}
		}
		return []row{{db, float64(failUncoded) / trials, float64(failHard) / trials,
			float64(failSoft) / trials}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
