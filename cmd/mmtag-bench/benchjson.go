package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"mmtag/internal/benchfmt"
	"mmtag/internal/eval"
	"mmtag/internal/par"
)

// BenchResult is one experiment's steady-state cost: wall time and heap
// traffic for a full table regeneration at a fixed seed. Each field is
// the minimum over the measurement reps, so one-time costs (FFT plan
// construction, pool warm-up) and scheduling noise drop out. The wire
// schema lives in internal/benchfmt, shared with mmtag-load's latency
// rows.
type BenchResult = benchfmt.Result

// BenchReport is the persisted benchmark file format (BENCH_<label>.json).
type BenchReport = benchfmt.Report

// measureBench runs each experiment reps times on a single-worker pool
// (serial execution keeps allocation counts deterministic) and keeps the
// per-field minimum. Allocation figures come from runtime.MemStats
// deltas around the run, after a forced GC to settle the heap.
func measureBench(label string, ids []string, seed int64, reps int) (*BenchReport, error) {
	if reps < 1 {
		reps = 1
	}
	pool := par.New(par.Config{Workers: 1})
	defer pool.Close()
	x := eval.Exec{Pool: pool}
	report := &BenchReport{Label: label, GoVersion: runtime.Version(), Seed: seed, Reps: reps}
	for _, id := range ids {
		var best BenchResult
		for r := 0; r < reps; r++ {
			cur, err := measureRep(x, id, seed)
			if err != nil {
				return nil, err
			}
			if r == 0 {
				best = cur
				continue
			}
			if cur.NsOp < best.NsOp {
				best.NsOp = cur.NsOp
			}
			if cur.AllocsOp < best.AllocsOp {
				best.AllocsOp = cur.AllocsOp
			}
			if cur.BytesOp < best.BytesOp {
				best.BytesOp = cur.BytesOp
			}
		}
		report.Benchmarks = append(report.Benchmarks, best)
	}
	return report, nil
}

// measureRep runs one experiment once under GOMAXPROCS(1), restoring
// the previous setting on return. The 1-worker pool starts no worker
// goroutine, but with several Ps the one goroutine running the
// experiment can migrate between them, and sync.Pool's per-P caches
// then miss at schedule-dependent points, so allocs/op wobbles by a
// few; on one P every run takes the same path. ns/op is timed at
// GOMAXPROCS 1 too, so GC marking shares the program's only P.
func measureRep(x eval.Exec, id string, seed int64) (BenchResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	start := time.Now()
	tables, err := eval.RunExperiment(x, id, nil, seed)
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		return BenchResult{}, fmt.Errorf("bench %s: %w", id, err)
	}
	runtime.ReadMemStats(&ms)
	rows := 0
	for _, t := range tables {
		rows += len(t.Rows)
	}
	return BenchResult{
		Name:     id,
		NsOp:     ns,
		AllocsOp: ms.Mallocs - mallocs,
		BytesOp:  ms.TotalAlloc - bytes,
		Rows:     rows,
	}, nil
}

// writeBenchReport renders the report as indented JSON to path
// ("-" = stdout).
func writeBenchReport(report *BenchReport, path string, w io.Writer) error {
	return benchfmt.Write(report, path, w)
}

// loadBenchReport reads a BENCH_*.json file.
func loadBenchReport(path string) (*BenchReport, error) {
	return benchfmt.Load(path)
}

// compareBench checks cur against base under the shared gate rules
// (see benchfmt.Compare); mmtag-bench only measures the eval suite, so
// load rows in a combined baseline are out of scope here.
func compareBench(cur, base *BenchReport, nsTolPct, allocsTolPct float64) []string {
	return benchfmt.Compare(cur, base, nsTolPct, allocsTolPct)
}

// runBenchJSON is the -benchjson / -benchcompare entry point: measure,
// optionally persist, optionally gate against a committed baseline.
// Returns an error whose message lists every regression when the gate
// fails.
func runBenchJSON(id string, seed int64, label, outPath string, reps int, comparePath string, nsTolPct, allocsTolPct float64, w io.Writer) error {
	ids := []string{id}
	withTput := false
	switch {
	case strings.EqualFold(id, "all"):
		ids = eval.ExperimentIDs()
		withTput = true
	case strings.EqualFold(id, "chaos"):
		ids = eval.ChaosExperimentIDs()
	case strings.EqualFold(id, "tput"):
		// Throughput suite only: the per-core tags·symbols/sec rows
		// (TPUT/E3, TPUT/E9, TPUT/E11 and the batch microbenchmark).
		ids = nil
		withTput = true
	}
	report, err := measureBench(label, ids, seed, reps)
	if err != nil {
		return err
	}
	if withTput {
		tput, err := measureTput(seed, reps)
		if err != nil {
			return err
		}
		report.Benchmarks = append(report.Benchmarks, tput...)
	}
	if outPath != "" {
		if err := writeBenchReport(report, outPath, w); err != nil {
			return err
		}
	}
	if comparePath == "" {
		return nil
	}
	base, err := loadBenchReport(comparePath)
	if err != nil {
		return err
	}
	problems := compareBench(report, base, nsTolPct, allocsTolPct)
	if len(problems) == 0 {
		fmt.Fprintf(w, "benchmark gate: %d benchmarks within baseline %s\n", len(base.Benchmarks), comparePath)
		return nil
	}
	return fmt.Errorf("benchmark regression vs %s:\n  %s", comparePath, strings.Join(problems, "\n  "))
}
