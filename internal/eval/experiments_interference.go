package eval

import (
	"mmtag/internal/mac"
	"mmtag/internal/rfmath"
	"mmtag/internal/sim"
)

// e17Interference's trial grid is the interferer-EIRP axis; every
// shard builds its own victim network, so nothing is shared.
func e17Interference(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:     "E17",
		Title:  "Co-channel interference: victim goodput vs neighbour AP EIRP (8 m away, in-sector)",
		Header: []string{"interferer_eirp_dBm", "tag_sinr_dB", "goodput_Mbps", "frames_ok"},
		Notes:  []string{"interference lands at an uncorrelated offset and degrades the link like noise"},
	}
	// EIRP -999 marks the clean baseline.
	grid := []float64{-999, 10, 20, 30, 40, 50}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		eirpDBm := grid[shard]
		net, err := buildFleet(tb, 4, seed+9)
		if err != nil {
			return nil, err
		}
		if eirpDBm > -999 {
			if err := net.AddInterferer(sim.Interferer{
				AzimuthRad: sim.Deg(10),
				DistanceM:  8,
				EIRPW:      rfmath.FromDBm(eirpDBm),
			}); err != nil {
				return nil, err
			}
		}
		// Representative tag SINR: the tag closest to the interferer's
		// bearing, queried on its own beam (worst-coupled victim).
		bestID, bestSep := net.Tags()[0], 999.0
		for _, id := range net.Tags() {
			p, _ := net.Placement(id)
			sep := p.AzimuthRad - sim.Deg(10)
			if sep < 0 {
				sep = -sep
			}
			if sep < bestSep {
				bestID, bestSep = id, sep
			}
		}
		pv, _ := net.Placement(bestID)
		snr, audible := net.SNR(bestID, pv.AzimuthRad, mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6})
		sinrDB := -99.0
		if audible && snr > 0 {
			sinrDB = rfmath.DB(snr)
		}
		rep, err := sim.RunInventory(net, sim.InventoryConfig{Duration: 0.02, Seed: seed})
		if err != nil {
			return nil, err
		}
		label := interface{}(eirpDBm)
		if eirpDBm == -999 {
			label = "none"
		}
		return []row{{label, sinrDB, rep.GoodputBps / 1e6, rep.FramesOK}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
