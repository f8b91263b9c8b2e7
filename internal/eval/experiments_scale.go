package eval

import (
	"strconv"

	"mmtag/internal/link"
	"mmtag/internal/net"
)

// E22 exercises the tiered-fidelity scale path (net.ScaleDeployment):
// populations from 10k to 1M tags across tens to hundreds of APs, each
// tag simulated at the fidelity tier its association SNR earns. The
// small sweeps run the full ladder (waveform heads, symbol shoulder,
// link-budget tail); the 1M row pins the pure tier-c regime that makes
// the population size affordable.

func e22ScaleTiers(x Exec, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E22",
		Title:  "Tiered-fidelity scaling: 10k-1M tags across AP grids",
		Header: []string{"tags", "aps", "grid", "tier_a", "tier_b", "tier_c", "frames_ok", "frames_lost", "delivery"},
		Notes: []string{"no paper counterpart: mmTag evaluates one AP; this projects the cell to warehouse-scale populations",
			"tier a/b/c = waveform / symbol Monte-Carlo / closed-form link budget, picked per tag by association SNR",
			"denser rows raise the fidelity floors so the waveform pool stays bounded (constant fidelity budget)",
			"the 1M row runs the link-budget tier only — the regime that keeps memory O(APs) and time O(tags)"},
	}
	// The 10k row runs the default ladder; the denser rows raise the
	// waveform (and at 100k the symbol) floor so the expensive-tier
	// population stays roughly constant as the deployment grows — the
	// compute budget per sweep is flat while coverage scales 100x.
	floors50k := link.Thresholds{WaveformMinDB: 40, SymbolMinDB: 15}
	floors100k := link.Thresholds{WaveformMinDB: 45, SymbolMinDB: 20}
	budgetOnly := link.AllBudget()
	rows := []struct {
		tags, aps int
		tiers     *link.Thresholds
	}{
		{10000, 16, nil},
		{50000, 64, &floors50k},
		{100000, 256, &floors100k},
		{1000000, 256, &budgetOnly},
	}
	err := x.runGrid(t, len(rows), func(shard int) ([]row, error) {
		rc := rows[shard]
		s, err := net.NewScale(net.ScaleConfig{
			APs:          rc.aps,
			CellM:        32,
			Tags:         rc.tags,
			Tiers:        rc.tiers,
			FramesPerTag: 2,
			Seed:         seed + int64(shard),
			Pool:         x.Pool,
		})
		if err != nil {
			return nil, err
		}
		rep, err := s.Run()
		if err != nil {
			return nil, err
		}
		total := rep.FramesOK + rep.FramesLost
		gridStr := strconv.Itoa(rep.Rows) + "x" + strconv.Itoa(rep.Cols)
		return []row{{rep.Tags, rep.APs, gridStr,
			rep.TierTags[link.TierWaveform], rep.TierTags[link.TierSymbol], rep.TierTags[link.TierBudget],
			rep.FramesOK, rep.FramesLost, float64(rep.FramesOK) / float64(total)}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
