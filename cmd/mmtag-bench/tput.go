package main

import (
	"fmt"
	"runtime"
	"time"

	"mmtag/internal/eval"
	"mmtag/internal/par"
)

// The "tput" benchmark suite gates demodulation throughput per core:
// tags·symbols per second, normalized so hardware-independent ratios
// gate cleanly. Row semantics (see internal/benchfmt): NsOp is wall
// nanoseconds per million tag·symbols on a single worker (minimum over
// the reps), BytesOp the tag·symbol workload of one regeneration or
// batch pass, Rows the table-row or lane count; AllocsOp stays zero —
// steady-state allocation discipline is enforced separately by the
// AllocsPerRun guards in internal/ap and internal/dsp.

// tputExperiments are the experiments whose wall time is dominated by
// the symbol-level hot path (slicer Monte-Carlo, waveform demod).
var tputExperiments = []string{"E3", "E9", "E11"}

// tputBatchLanes sizes the batched-demodulator microbenchmark row
// (TPUT/BATCH64).
const tputBatchLanes = 64

// normNsPerMSymbols converts a wall time for `symbols` tag·symbols to
// nanoseconds per million tag·symbols.
func normNsPerMSymbols(ns, symbols int64) int64 {
	return int64(float64(ns) * 1e6 / float64(symbols))
}

// measureTput produces the tput suite rows: one per gated experiment
// plus the DemodulateBatchTo microbenchmark.
func measureTput(seed int64, reps int) ([]BenchResult, error) {
	if reps < 1 {
		reps = 1
	}
	pool := par.New(par.Config{Workers: 1})
	defer pool.Close()
	x := eval.Exec{Pool: pool}
	var out []BenchResult
	for _, id := range tputExperiments {
		work, err := eval.TagSymbolWorkload(id)
		if err != nil {
			return nil, err
		}
		var bestNs int64
		rows := 0
		for r := 0; r < reps; r++ {
			start := time.Now()
			tables, err := eval.RunExperiment(x, id, nil, seed)
			ns := time.Since(start).Nanoseconds()
			if err != nil {
				return nil, fmt.Errorf("tput %s: %w", id, err)
			}
			if r == 0 || ns < bestNs {
				bestNs = ns
			}
			rows = 0
			for _, t := range tables {
				rows += len(t.Rows)
			}
		}
		out = append(out, BenchResult{
			Name:    "TPUT/" + id,
			Suite:   "tput",
			NsOp:    normNsPerMSymbols(bestNs, work),
			BytesOp: uint64(work),
			Rows:    rows,
		})
	}
	micro, err := eval.RunBatchMicro(tputBatchLanes, reps, seed)
	if err != nil {
		return nil, err
	}
	out = append(out, BenchResult{
		Name:    fmt.Sprintf("TPUT/BATCH%d", micro.Lanes),
		Suite:   "tput",
		NsOp:    normNsPerMSymbols(micro.NsPass, micro.TagSymbols),
		BytesOp: uint64(micro.TagSymbols),
		Rows:    micro.Lanes,
	})
	runtime.GC() // leave a settled heap for any following measurement
	return out, nil
}
