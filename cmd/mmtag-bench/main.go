// Command mmtag-bench regenerates the evaluation tables and figures
// (E1-E21, A1-A2, R1-R3, T2, T3 — see DESIGN.md section 4 and
// EXPERIMENTS.md).
//
// Usage:
//
//	mmtag-bench                     # run everything, print text tables
//	mmtag-bench -experiment E4      # one experiment
//	mmtag-bench -faults             # chaos-soak subset R1..R3
//	mmtag-bench -aps                # multi-AP deployment subset E19..E22
//	mmtag-bench -csv -out results/  # write one CSV per experiment
//	mmtag-bench -seed 7             # change the Monte-Carlo seed
//	mmtag-bench -parallel 8         # shard experiments across 8 workers
//	mmtag-bench -metrics bench.prom -pprof profiles/
//	mmtag-bench -benchjson BENCH_baseline.json   # record per-experiment cost
//	mmtag-bench -benchjson - -benchcompare BENCH_baseline.json
//
// -parallel N runs the suite on an N-worker pool: experiments (and
// their internal trial grids) shard across workers, but every table is
// byte-identical to the serial run because each trial derives its RNG
// stream from its own grid coordinates, never from the schedule.
// -parallel 1 is exactly the historical serial harness.
//
// With -metrics the harness itself is metered: per-experiment wall time
// and row counts land in a registry snapshot written in Prometheus text
// format (or JSON when the path ends in .json), alongside the pool's
// par_tasks_total / par_queue_depth series. -pprof captures a CPU
// profile labelled by experiment, heap and allocs profiles and a GC
// summary, then prints the `go tool pprof` commands that read it.
//
// -benchjson switches the harness into measurement mode: each selected
// experiment runs -benchreps times on a single worker, and the minimum
// wall time and heap traffic per run land in a JSON report (see
// BenchReport). -benchcompare gates that report against a committed
// baseline — any allocs/op increase, row-count change, or ns/op
// regression beyond -benchnstol percent fails the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mmtag/internal/eval"
	"mmtag/internal/obs"
	"mmtag/internal/obs/serve"
	"mmtag/internal/par"
	"mmtag/internal/trace"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment ID to run (E1..E22, A1, A2, R1..R3, T2, T3, or all)")
	faults := flag.Bool("faults", false, "run only the chaos-soak experiments (R1..R3)")
	aps := flag.Bool("aps", false, "run only the multi-AP deployment experiments (E19..E22)")
	seed := flag.Int64("seed", 42, "seed for Monte-Carlo experiments")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for the experiment pool (1 = serial)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	out := flag.String("out", "", "directory to write per-experiment files (stdout if empty)")
	metrics := flag.String("metrics", "", "write harness metrics (per-experiment wall time) to this file (- for stdout)")
	pprofDir := flag.String("pprof", "", "write cpu/heap/allocs profiles and a GC summary to this directory")
	serveAddr := flag.String("serve", "", "serve live observability HTTP endpoints (/metrics, /events, /debug/pprof) on this address")
	runIDFlag := flag.String("run-id", "", "run identity label for trace events and the run_info metric (default: derived from the selection)")
	benchJSON := flag.String("benchjson", "", "measure ns/op, allocs/op and bytes/op per experiment and write a JSON report to this path (- for stdout)")
	benchLabel := flag.String("benchlabel", "local", "label recorded in the -benchjson report")
	benchReps := flag.Int("benchreps", 3, "measurement repetitions per experiment for -benchjson (minimum is kept)")
	benchCompare := flag.String("benchcompare", "", "baseline BENCH_*.json to gate against; exits 1 on any regression")
	benchNsTol := flag.Float64("benchnstol", 15, "ns/op regression tolerance in percent for -benchcompare (0 disables the time check)")
	benchAllocsTol := flag.Float64("benchallocstol", 0, "allocs/op regression tolerance in percent for -benchcompare (0 demands exact counts; CI uses 0.01 to absorb GC-timing noise)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "mmtag-bench: %v\n", err)
		os.Exit(1)
	}
	if *benchJSON != "" || *benchCompare != "" {
		if err := runBenchJSON(*experiment, *seed, *benchLabel, *benchJSON, *benchReps, *benchCompare, *benchNsTol, *benchAllocsTol, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	id := *experiment
	if *faults && *aps {
		fail(fmt.Errorf("-faults and -aps select disjoint subsets; pick one"))
	}
	if *faults {
		if id != "all" {
			fail(fmt.Errorf("-faults selects the chaos suite; drop -experiment %s", id))
		}
		id = "chaos"
	}
	if *aps {
		if id != "all" {
			fail(fmt.Errorf("-aps selects the deployment suite; drop -experiment %s", id))
		}
		id = "net"
	}
	runID := *runIDFlag
	if runID == "" {
		runID = fmt.Sprintf("bench-%s-seed%d", strings.ToLower(id), *seed)
	}
	// The metered path is also what applies per-experiment pprof labels
	// and publishes live progress, so -serve and -pprof force a registry.
	var reg *obs.Registry
	if *metrics != "" || *serveAddr != "" || *pprofDir != "" {
		reg = obs.NewRegistry()
		reg.GaugeVec("run_info", "Run identity; the value is always 1.", "run").
			With(runID).Set(1)
	}
	var srv *serve.Server
	if *serveAddr != "" {
		var err error
		srv, err = serve.Start(serve.Config{Addr: *serveAddr, Registry: reg, RunID: runID})
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "mmtag-bench: observability endpoint on %s\n", srv.URL())
		defer srv.Close()
	}
	stopCPU := func() {}
	if *pprofDir != "" {
		var err error
		stopCPU, err = startCPUProfile(*pprofDir)
		if err != nil {
			fail(err)
		}
	}
	pool := par.New(par.Config{Workers: *parallel, Registry: reg})
	defer pool.Close()
	x := eval.Exec{Pool: pool}
	var publish func(trace.Event)
	if srv != nil {
		publish = srv.Publish
	}
	tables, err := runMetered(x, id, *seed, reg, runID, publish)
	if err != nil {
		fail(err)
	}
	if *out == "" {
		printTables(os.Stdout, tables, *csv)
	} else {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		for _, t := range tables {
			body, ext := t.Render(), "txt"
			if *csv {
				body, ext = t.CSV(), "csv"
			}
			path := filepath.Join(*out, fmt.Sprintf("%s.%s", strings.ToLower(t.ID), ext))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	if *metrics != "" {
		if err := writeMetrics(reg, *metrics, os.Stdout); err != nil {
			fail(err)
		}
	}
	if *pprofDir != "" {
		stopCPU()
		if err := writeProfiles(*pprofDir, os.Stdout); err != nil {
			fail(err)
		}
		writePprofCommands(os.Stdout, *pprofDir, selectIDs(id))
	}
	if srv != nil {
		srv.WaitSignal(os.Stderr)
	}
}

// writePprofCommands prints the commands that total dir/cpu.pprof by
// experiment label and list one experiment's flat/cum cost per
// function. pprof matches tag values as unanchored regexps, so a
// multi-experiment run gets an anchored template (E1 also matches E12).
func writePprofCommands(w io.Writer, dir string, ids []string) {
	path, focus := filepath.Join(dir, "cpu.pprof"), "'^ID$'"
	if len(ids) == 1 {
		focus = ids[0]
	}
	fmt.Fprintf(w, "\ncpu cost by experiment:\n  go tool pprof -tags %s\n"+
		"  go tool pprof -top -relative_percentages -tagfocus=experiment=%s %s\n", path, focus, path)
}

// printTables writes each table body followed by a blank separator
// line — the harness's historical stdout format, shared with the
// golden-file test.
func printTables(w io.Writer, tables []*eval.Table, csv bool) {
	for _, t := range tables {
		body := t.Render()
		if csv {
			body = t.CSV()
		}
		fmt.Fprintln(w, body)
	}
}

// runMetered runs the requested experiments, timing each into the
// registry. With a nil registry it defers to the plain run path. The
// metered "all" run shards experiments across x.Pool exactly like
// eval.RunSuite does — fixed result slots keep the output order (and
// bytes) schedule-independent, and the obs instruments are safe to
// update from pool workers.
//
// Each experiment executes under a pprof goroutine label
// experiment=<ID>, which the worker pool propagates to the goroutines
// running its trial grid, so a -pprof CPU capture attributes samples
// per experiment (go tool pprof -tags). When publish is non-nil a
// progress span is streamed per finished experiment.
func runMetered(x eval.Exec, id string, seed int64, reg *obs.Registry, runID string, publish func(trace.Event)) ([]*eval.Table, error) {
	if reg == nil {
		return run(x, id, seed)
	}
	seconds := reg.LogHistogramVec("bench_experiment_seconds",
		"Wall-clock cost of regenerating each evaluation table (log2 buckets).",
		"experiment")
	wallQ := reg.Quantile("bench_experiment_wall_seconds",
		"Per-experiment wall time (reservoir-sampled p50/p90/p99).")
	rows := reg.CounterVec("bench_rows_total",
		"Table rows produced per experiment.", "experiment")
	total := reg.Counter("bench_experiments_total",
		"Experiments executed by this bench invocation.")
	ids := selectIDs(id)
	results := make([][]*eval.Table, len(ids))
	err := x.Pool.Map(x.Ctx, len(ids), func(i int) error {
		eid := ids[i]
		start := time.Now()
		var tables []*eval.Table
		var err error
		pprof.Do(contextOrBackground(x.Ctx), pprof.Labels("experiment", eid), func(ctx context.Context) {
			xe := x
			xe.Ctx = ctx
			tables, err = eval.RunExperiment(xe, eid, nil, seed)
		})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		seconds.With(eid).Observe(wall.Seconds())
		wallQ.Observe(wall.Seconds())
		total.Inc()
		for _, t := range tables {
			rows.With(eid).Add(float64(len(t.Rows)))
		}
		if publish != nil {
			publish(trace.Event{
				Kind:   trace.KindSpan,
				Span:   "experiment",
				Detail: eid,
				WallNs: wall.Nanoseconds(),
				Run:    runID,
			})
		}
		results[i] = tables
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*eval.Table
	for _, tables := range results {
		out = append(out, tables...)
	}
	return out, nil
}

// selectIDs expands a selection ("all", "chaos", "net" or one ID) into
// the experiment IDs it runs, in report order.
func selectIDs(id string) []string {
	switch {
	case strings.EqualFold(id, "all"):
		return eval.ExperimentIDs()
	case strings.EqualFold(id, "chaos"):
		return eval.ChaosExperimentIDs()
	case strings.EqualFold(id, "net"):
		return eval.NetExperimentIDs()
	}
	return []string{id}
}

// contextOrBackground papers over eval.Exec's optional context.
func contextOrBackground(ctx context.Context) context.Context {
	if ctx != nil {
		return ctx
	}
	return context.Background()
}

// writeMetrics renders the registry snapshot to path ("-" = w), as JSON
// when the path ends in .json and Prometheus text otherwise.
func writeMetrics(reg *obs.Registry, path string, w io.Writer) error {
	var dst io.Writer = w
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	} else {
		fmt.Fprintf(w, "metrics:\n")
	}
	var err error
	if strings.ToLower(filepath.Ext(path)) == ".json" {
		err = reg.WriteJSON(dst)
	} else {
		err = reg.WritePrometheus(dst)
	}
	if err == nil && path != "-" {
		fmt.Fprintf(w, "wrote metrics to %s\n", path)
	}
	return err
}

// startCPUProfile begins CPU sampling into dir/cpu.pprof and returns
// the stop function that finishes the profile and closes the file.
func startCPUProfile(dir string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeProfiles captures heap and allocs profiles plus a GC summary.
// The CPU profile is already on disk by the time this runs (see
// startCPUProfile), so the summary line names all three.
func writeProfiles(dir string, w io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile reflects the run
	for _, name := range []string{"heap", "allocs"} {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, name+".pprof"))
		if err != nil {
			return err
		}
		if err := p.WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "runtime: %d GC cycles, %.3f ms total pause, %.2f MiB heap, %.2f MiB total alloc\n",
		ms.NumGC, float64(ms.PauseTotalNs)/1e6,
		float64(ms.HeapAlloc)/(1<<20), float64(ms.TotalAlloc)/(1<<20))
	fmt.Fprintf(w, "wrote cpu.pprof, heap.pprof and allocs.pprof to %s\n", dir)
	return nil
}

// run dispatches to the eval suite: "all" shards experiments across
// x.Pool, "chaos" runs the fault-injection soaks (R1..R3), "net" runs
// the multi-AP deployment subset (E19..E22), and a single ID runs just
// that experiment (its trial grid still shards across the pool).
func run(x eval.Exec, id string, seed int64) ([]*eval.Table, error) {
	if strings.EqualFold(id, "all") {
		return eval.RunSuite(x, nil, seed)
	}
	var out []*eval.Table
	for _, eid := range selectIDs(id) {
		tables, err := eval.RunExperiment(x, eid, nil, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, tables...)
	}
	return out, nil
}
