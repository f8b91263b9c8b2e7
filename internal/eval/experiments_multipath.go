package eval

import (
	"mmtag/internal/channel"
	"mmtag/internal/fastrand"
	"mmtag/internal/phy"
	"mmtag/internal/rfmath"
)

// e16Multipath's trial grid is the K-factor axis: each shard seeds its
// own RNG from its K value (the historical per-row seeding) and
// averages its realizations privately.
func e16Multipath(x Exec, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "Multipath robustness: symbol error rate vs Rician K (QPSK, 25 dB SNR)",
		Header: []string{"k_dB", "ser_onetap", "ser_mmse", "delay_spread_samp"},
		Notes:  []string{"3 scattered taps over 3 symbols; sounding uses a 511-symbol PN header; MMSE has 21 taps"},
	}
	const nData = 2000
	const trainLen = 511
	const realizations = 8
	grid := []float64{20, 10, 6, 3, 0}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		kDB := grid[shard]
		c := phy.NewQPSK()
		rng := fastrand.New(seed + int64(kDB*10))
		k := rfmath.FromDB(kDB)
		var serOneSum, serMMSESum, spreadSum float64
		for rz := 0; rz < realizations; rz++ {
			taps, err := channel.RicianTaps(rng, k, 3, 3)
			if err != nil {
				return nil, err
			}
			// Training + data through the channel.
			train := make([]complex128, trainLen)
			for i := range train {
				train[i] = complex(float64(rng.Intn(2)*2-1), 0)
			}
			bits := phy.RandomBits(rng, 2*nData)
			data := c.Modulate(nil, c.MapBits(nil, bits))
			tx := append(append([]complex128{}, train...), data...)
			rx := channel.ApplyTapsTo(nil, tx, taps)
			channel.AWGN(rng, rx, rfmath.FromDB(-25))

			// (a) one-tap receiver: data-aided gain from the training.
			g, err := phy.EstimateGain(rx[:trainLen], train)
			if err != nil {
				return nil, err
			}
			oneTap := phy.ScaleRotateTo(nil, rx[trainLen:], g)
			serOneSum += symbolErrors(c, oneTap, data)

			// (b) sound + MMSE equalize.
			h, err := phy.EstimateCIR(rx, train, 6)
			if err != nil {
				return nil, err
			}
			const nTaps = 21
			delay := (len(h) + nTaps) / 2
			w, err := phy.DesignEqualizer(h, nTaps, delay, rfmath.FromDB(-25))
			if err != nil {
				return nil, err
			}
			eq := phy.EqualizeTo(nil, rx, w, delay)
			serMMSESum += symbolErrors(c, eq[trainLen:], data)

			spread, err := phy.RMSDelaySpread(h, 1)
			if err != nil {
				return nil, err
			}
			spreadSum += spread
		}
		return []row{{kDB, serOneSum / realizations, serMMSESum / realizations,
			spreadSum / realizations}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// symbolErrors slices rx against the known tx points (interior region,
// away from filter edges) and returns the symbol error rate.
func symbolErrors(c *phy.Constellation, rx, tx []complex128) float64 {
	n := len(tx)
	if len(rx) < n {
		n = len(rx)
	}
	const guard = 30
	errs, total := 0, 0
	for i := guard; i < n-guard; i++ {
		total++
		if c.Nearest(rx[i]) != c.Nearest(tx[i]) {
			errs++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(errs) / float64(total)
}
