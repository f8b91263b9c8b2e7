package eval

// Chaos-soak experiments R1-R3: the MAC/network stack under the
// deterministic fault-injection substrate (internal/fault). Each row
// compares a faulted inventory run against its unfaulted baseline at
// the same seed, so "retention" columns isolate the fault's cost from
// the scenario's intrinsic difficulty. Like every experiment here, the
// trial grids shard across the pool and every fault draws from
// seed-derived streams, so the tables are byte-identical at any
// -parallel width.

import (
	"mmtag/internal/fault"
	"mmtag/internal/rfmath"
	"mmtag/internal/sim"
)

// chaosRun executes one faulted inventory run plus its unfaulted
// baseline over a freshly built fleet of n tags and returns both
// reports.
func chaosRun(tb *Testbed, n int, seed int64, plan *fault.Plan, duration float64) (faulted, baseline *sim.InventoryReport, err error) {
	runOnce := func(p *fault.Plan) (*sim.InventoryReport, error) {
		net, err := buildFleet(tb, n, seed+9)
		if err != nil {
			return nil, err
		}
		return sim.RunInventory(net, sim.InventoryConfig{
			Duration: duration,
			Seed:     seed + int64(n),
			Faults:   p,
		})
	}
	if baseline, err = runOnce(nil); err != nil {
		return nil, nil, err
	}
	if faulted, err = runOnce(plan); err != nil {
		return nil, nil, err
	}
	return faulted, baseline, nil
}

// retention is the faulted/baseline goodput ratio (1 when the baseline
// produced nothing).
func retention(faulted, baseline *sim.InventoryReport) float64 {
	if baseline.GoodputBps == 0 {
		return 1
	}
	return faulted.GoodputBps / baseline.GoodputBps
}

func r1BurstBlockage(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:    "R1",
		Title: "Chaos soak: Gilbert-Elliott burst blockage (8 tags, 50 ms)",
		Header: []string{"depth_dB", "delivery_ratio", "degraded_picks",
			"blockage_flips", "evictions", "goodput_retention"},
		Notes: []string{"mean dwells 20 ms clear / 5 ms blocked; retention = faulted/baseline goodput at the same seed"},
	}
	grid := []float64{10, 20, 30, 40}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		depth := grid[shard]
		plan := &fault.Plan{Blockage: &fault.BlockagePlan{AttenuationDB: depth}}
		faulted, baseline, err := chaosRun(tb, 8, seed+int64(depth), plan, 0.05)
		if err != nil {
			return nil, err
		}
		rec := faulted.Recovery
		return []row{{depth, rec.DeliveryRatio, rec.DegradedPicks,
			rec.Faults.BlockageTransitions, rec.Evictions,
			retention(faulted, baseline)}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func r2TagChurn(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:    "R2",
		Title: "Chaos soak: tag churn — permanent death and brownout (8 tags, 150 ms)",
		Header: []string{"scenario", "tags_dead", "evictions", "rediscoveries",
			"mean_recovery_cycles", "delivery_ratio", "goodput_retention"},
		Notes: []string{"death: per-tag exponential lifetime, mean 20 ms; brownout: harvest-limited duty cycling at the given incident power, 30 ms period"},
	}
	scenarios := []struct {
		name string
		plan *fault.Plan
	}{
		{"death p=0.5", &fault.Plan{Death: &fault.DeathPlan{Prob: 0.5, MeanLifetimeS: 0.02}}},
		{"death p=0.9", &fault.Plan{Death: &fault.DeathPlan{Prob: 0.9, MeanLifetimeS: 0.02}}},
		{"brownout -10dBm", &fault.Plan{Brownout: &fault.BrownoutPlan{IncidentPowerW: rfmath.FromDBm(-10), PeriodS: 0.03}}},
		{"brownout -9dBm", &fault.Plan{Brownout: &fault.BrownoutPlan{IncidentPowerW: rfmath.FromDBm(-9), PeriodS: 0.03}}},
	}
	err := x.runGrid(t, len(scenarios), func(shard int) ([]row, error) {
		sc := scenarios[shard]
		faulted, baseline, err := chaosRun(tb, 8, seed, sc.plan, 0.15)
		if err != nil {
			return nil, err
		}
		rec := faulted.Recovery
		return []row{{sc.name, rec.TagsDead, rec.Evictions, rec.Rediscoveries,
			rec.MeanRecoveryCycles, rec.DeliveryRatio,
			retention(faulted, baseline)}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func r3AckLoss(x Exec, tb *Testbed, seed int64) (*Table, error) {
	tb = tb.orDefault()
	t := &Table{
		ID:    "R3",
		Title: "Chaos soak: AP-to-tag ACK loss (8 tags, 50 ms)",
		Header: []string{"ack_loss_prob", "delivery_ratio", "acks_dropped",
			"duplicates_absorbed", "retransmissions", "goodput_retention"},
		Notes: []string{"duplicates are counted once as information; retention falls with the air time the retransmissions burn"},
	}
	grid := []float64{0.1, 0.3, 0.5}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		prob := grid[shard]
		plan := &fault.Plan{AckLoss: &fault.AckLossPlan{Prob: prob}}
		faulted, baseline, err := chaosRun(tb, 8, seed+int64(shard)*7, plan, 0.05)
		if err != nil {
			return nil, err
		}
		rec := faulted.Recovery
		return []row{{prob, rec.DeliveryRatio, rec.Faults.AcksDropped,
			rec.DuplicateFrames, faulted.MACStats.Retransmissions,
			retention(faulted, baseline)}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
