package eval

import (
	"math"
	"sort"
	"strconv"

	"mmtag/internal/geom"
	"mmtag/internal/net"
	"mmtag/internal/rfmath"
)

// The deployment experiments (E19-E21) exercise internal/net, the
// multi-AP layer: throughput scaling with AP count, handoff latency
// under mobility, and edge-tag interference versus channel reuse. They
// have no counterpart figure in the paper — mmTag's evaluation stops at
// one AP — so the tables are forward-looking projections of the
// reconstructed cell, not reproductions.

func e19APScaling(x Exec, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E19",
		Title:  "Aggregate throughput vs AP count (48 tags, spatial sharding)",
		Header: []string{"aps", "grid", "area_m2", "discovered", "goodput_Mbps", "frames_ok"},
		Notes: []string{"no paper counterpart: mmTag evaluates one AP; this projects the reconstructed cell to a tiled deployment",
			"fixed population; goodput grows with APs because cells poll concurrently and tags sit closer to their AP"},
	}
	grid := []int{1, 2, 4, 9}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		aps := grid[shard]
		d, err := net.New(net.Config{
			APs:      aps,
			Tags:     48,
			Epochs:   2,
			Duration: 0.03,
			Seed:     seed + int64(aps),
			Pool:     x.Pool,
		})
		if err != nil {
			return nil, err
		}
		rep, err := d.Run()
		if err != nil {
			return nil, err
		}
		area := float64(rep.Rows*rep.Cols) * 8 * 8
		gridStr := strconv.Itoa(rep.Rows) + "x" + strconv.Itoa(rep.Cols)
		return []row{{aps, gridStr, area, rep.Discovered,
			rep.AggregateGoodputBps / 1e6, rep.FramesOK}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func e20HandoffLatency(x Exec, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E20",
		Title:  "Handoff latency under mobility (2x2 grid, 32 tags, half mobile)",
		Header: []string{"metric", "value"},
		Notes: []string{"no paper counterpart: latency = base 2 ms + uniform jitter < 2 ms per handoff, drawn from the tag's derived stream",
			"dup_polls estimates source-AP polls wasted in the stale-roster window"},
	}
	err := x.runGrid(t, 1, func(int) ([]row, error) {
		d, err := net.New(net.Config{
			APs:        4,
			Tags:       32,
			MobileFrac: 0.5,
			Epochs:     8,
			Duration:   0.04,
			Seed:       seed,
			Pool:       x.Pool,
		})
		if err != nil {
			return nil, err
		}
		rep, err := d.Run()
		if err != nil {
			return nil, err
		}
		lat := rep.HandoffLatencies()
		sort.Float64s(lat)
		health := 0
		for _, h := range rep.Handoffs {
			if h.Reason == "health" {
				health++
			}
		}
		rows := []row{
			{"handoffs", len(lat)},
			{"health_triggered", health},
			{"dup_polls", rep.DuplicatePolls},
		}
		for _, p := range []float64{0.10, 0.50, 0.90, 1.00} {
			rows = append(rows, row{pctLabel(p), percentile(lat, p) * 1e3})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func e21EdgeReuse(x Exec, seed int64) (*Table, error) {
	t := &Table{
		ID:     "E21",
		Title:  "Edge-tag SINR/BER vs channel reuse distance (1x5 row, 60 tags)",
		Header: []string{"reuse_cells", "interferers", "sinr_dB", "ber_qpsk"},
		Notes: []string{"no paper counterpart: probe tag 0.5 m inside cell 2's west edge; neighbours' tags backscatter into its AP",
			"reuse N leaves only every Nth cell co-channel, so the interference floor decays with N"},
	}
	rate := net.ProbeRate()
	grid := []int{1, 2, 3}
	err := x.runGrid(t, len(grid), func(shard int) ([]row, error) {
		reuse := grid[shard]
		d, err := net.New(net.Config{
			APs:          5,
			Cols:         5,
			Tags:         60,
			InterfRangeM: 20,
			ReuseCells:   reuse,
			Seed:         seed + 11,
		})
		if err != nil {
			return nil, err
		}
		probe := geom.Point{X: 16.5, Y: 3}
		sinrDB, interferers, err := d.ProbeSINR(2, probe, rate)
		if err != nil {
			return nil, err
		}
		ebn0 := rfmath.EbN0FromSNR(rfmath.FromDB(sinrDB), rate.BitRate, rate.SymbolRate())
		return []row{{reuse, interferers, sinrDB, rfmath.BERQPSK(ebn0)}}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// percentile returns the p-quantile of sorted (ascending) xs by the
// nearest-rank method; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// pctLabel renders "p50_ms" style metric names.
func pctLabel(p float64) string {
	if p >= 1 {
		return "max_ms"
	}
	return "p" + strconv.Itoa(int(p*100)) + "_ms"
}
