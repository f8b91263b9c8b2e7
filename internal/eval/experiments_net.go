package eval

import (
	"math/rand"

	"mmtag/internal/ap"
	"mmtag/internal/mac"
	"mmtag/internal/sim"
	"mmtag/internal/tag"
	"mmtag/internal/vanatta"
)

// buildFleet places n tags uniformly across the ±55° sector at
// distances drawn from [1.5, 5] m, returning the network.
func buildFleet(tb *Testbed, n int, seed int64) (*sim.Network, error) {
	apx, err := ap.New(ap.Config{
		FreqHz:        tb.FreqHz,
		TxPowerW:      tb.TxPowerW,
		NoiseFigureDB: tb.NoiseFigureDB,
	})
	if err != nil {
		return nil, err
	}
	net, err := sim.NewNetwork(apx, nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		arr, err := tb.tagArray(0)
		if err != nil {
			return nil, err
		}
		dev, err := tag.New(tag.Config{
			ID:             uint8(i + 1),
			Array:          arr,
			Modulation:     vanatta.QPSK(),
			SwitchRiseTime: tb.SwitchRiseTime,
		})
		if err != nil {
			return nil, err
		}
		az := -55.0 + 110.0*float64(i)/float64(maxI(n-1, 1))
		dist := 1.5 + rng.Float64()*3.5
		if err := net.AddTag(sim.Placement{
			Device:     dev,
			DistanceM:  dist,
			AzimuthRad: sim.Deg(az),
		}); err != nil {
			return nil, err
		}
	}
	return net, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// e7MultiTag's trial grid is the population axis: each shard builds its
// own fleets and seeds its own runs, so shards share no state.
func e7MultiTag(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:    "E7",
		Title: "Aggregate goodput vs number of tags (TDMA vs SDM)",
		Header: []string{"tags", "discovered", "tdma_goodput_Mbps",
			"sdm_goodput_Mbps", "sdm_groups"},
	}
	grid := []int{1, 2, 4, 8, 16, 32}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		n := grid[shard]
		runOnce := func(sdm bool) (*sim.InventoryReport, error) {
			net, err := buildFleet(tb, n, seed)
			if err != nil {
				return nil, err
			}
			return sim.RunInventory(net, sim.InventoryConfig{
				Duration: 0.05,
				Seed:     seed + int64(n),
				SDM:      sdm,
			})
		}
		tdma, err := runOnce(false)
		if err != nil {
			return nil, err
		}
		sdm, err := runOnce(true)
		if err != nil {
			return nil, err
		}
		return []row{{n, tdma.Discovered, tdma.GoodputBps / 1e6,
			sdm.GoodputBps / 1e6, sdm.SDMGroups}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func e10Discovery(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:     "E10",
		Title:  "Discovery latency vs tag population",
		Header: []string{"tags", "discovered", "latency_ms", "probes", "collisions"},
	}
	grid := []int{1, 2, 4, 8, 16, 32}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		n := grid[shard]
		net, err := buildFleet(tb, n, seed+77)
		if err != nil {
			return nil, err
		}
		rep, err := sim.RunInventory(net, sim.InventoryConfig{
			Duration: 0.001, // discovery-dominated run
			Seed:     seed + int64(n),
		})
		if err != nil {
			return nil, err
		}
		return []row{{n, rep.Discovered, rep.DiscoveryTime * 1e3,
			rep.MACStats.ProbesSent, rep.MACStats.Collisions}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func e14DiscoveryAblation(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:    "E14",
		Title: "Discovery strategy ablation (slots spent / tags found)",
		Header: []string{"tags", "fixed8_found", "fixed8_slots",
			"aloha2_found", "aloha2_slots", "adaptive_found", "adaptive_slots"},
		Notes: []string{"fixed8 = default sweep discovery; aloha2 = undersized fixed window; adaptive = Q-style window scaling"},
	}
	grid := []int{4, 16, 32}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		n := grid[shard]
		type outcome struct{ found, slots int }
		runWith := func(f func(st *mac.Station) outcome) (outcome, error) {
			net, err := buildFleet(tb, n, seed+5)
			if err != nil {
				return outcome{}, err
			}
			rng := rand.New(rand.NewSource(seed + int64(n)))
			st, err := mac.NewStation(mac.StationConfig{Beams: net.Codebook(sim.Deg(60))}, net, rng)
			if err != nil {
				return outcome{}, err
			}
			return f(st), nil
		}
		fixed, err := runWith(func(st *mac.Station) outcome {
			found := st.Discover()
			return outcome{found, st.Stats.DiscoverySlots}
		})
		if err != nil {
			return nil, err
		}
		aloha2, err := runWith(func(st *mac.Station) outcome {
			res := st.DiscoverAloha(mac.AlohaConfig{InitialSlots: 2, MaxRounds: 64})
			return outcome{res.Found, res.SlotsUsed}
		})
		if err != nil {
			return nil, err
		}
		adaptive, err := runWith(func(st *mac.Station) outcome {
			res := st.DiscoverAloha(mac.AlohaConfig{InitialSlots: 2, Adaptive: true, MaxRounds: 64})
			return outcome{res.Found, res.SlotsUsed}
		})
		if err != nil {
			return nil, err
		}
		return []row{{n, fixed.found, fixed.slots, aloha2.found, aloha2.slots,
			adaptive.found, adaptive.slots}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func e15Blockage(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:    "E15",
		Title: "Blockage ride-through (4 m, 40 ms episode, ARQ + adaptation)",
		Header: []string{"depth_dB_oneway", "delivery_ratio", "blocked_losses",
			"rate_changes", "goodput_Mbps"},
		Notes: []string{"a human body at mmWave costs 20-40 dB; ride-through relies on dropping down the rate ladder"},
	}
	grid := []float64{0, 10, 20, 30, 40, 50}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		depth := grid[shard]
		net, err := buildFleet(tb, 1, seed+3)
		if err != nil {
			return nil, err
		}
		// Pin the lone tag to 4 m straight ahead.
		id := net.Tags()[0]
		p, _ := net.Placement(id)
		p.DistanceM, p.AzimuthRad, p.OrientationRad = 4, 0, 0
		cfg := sim.MobileConfig{
			TagID: id,
			Trajectory: []sim.Waypoint{
				{Time: 0, DistanceM: 4},
				{Time: 0.12, DistanceM: 4},
			},
			StepS:       1e-3,
			RefineEvery: 5,
			Seed:        seed + int64(depth),
		}
		if depth > 0 {
			cfg.Blockage = []sim.BlockageEvent{{Start: 0.04, End: 0.08, AttenuationDB: depth}}
		}
		rep, err := sim.RunMobile(net, cfg)
		if err != nil {
			return nil, err
		}
		return []row{{depth, rep.DeliveryRatio(), rep.BlockedLost, rep.RateChanges,
			rep.GoodputBps / 1e6}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func a2SDMChains(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:     "A2",
		Title:  "SDM goodput vs AP RF-chain count (16 beam-separated tags)",
		Header: []string{"chains", "goodput_Mbps", "slots_per_cycle"},
	}
	grid := []int{1, 2, 4, 8}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		chains := grid[shard]
		net, err := buildFleet(tb, 16, seed+21)
		if err != nil {
			return nil, err
		}
		rep, err := sim.RunInventory(net, sim.InventoryConfig{
			Duration:  0.05,
			Seed:      seed,
			SDM:       true,
			SDMChains: chains,
		})
		if err != nil {
			return nil, err
		}
		return []row{{chains, rep.GoodputBps / 1e6, rep.SDMGroups}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
