package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmtag/internal/eval"
	"mmtag/internal/obs"
	"mmtag/internal/par"
)

func TestRunSingleExperiments(t *testing.T) {
	// The cheap experiments: every ID resolves and yields a non-empty
	// table. (E3/E7/E12 are Monte-Carlo heavy and covered by the eval
	// package's own tests and the benchmarks.)
	for _, id := range []string{"E1", "E2", "E4", "E5", "E6", "E8", "E13", "T2", "T3"} {
		t.Run(id, func(t *testing.T) {
			tables, err := run(eval.Exec{}, id, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) != 1 || len(tables[0].Rows) == 0 {
				t.Fatalf("%s: unexpected result shape", id)
			}
			if !strings.EqualFold(tables[0].ID, id) {
				t.Fatalf("%s: table ID %s", id, tables[0].ID)
			}
		})
	}
}

func TestRunE11ReturnsTwoTables(t *testing.T) {
	tables, err := run(eval.Exec{}, "e11", 1) // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E11 tables %d, want 2", len(tables))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := run(eval.Exec{}, "E99", 1); err == nil {
		t.Fatal("unknown ID must error")
	}
}

func TestRunMeteredRecordsHarnessMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tables, err := runMetered(eval.Exec{}, "E2", 1, reg, "bench-e2-seed1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables %d, want 1", len(tables))
	}
	snap := reg.Snapshot()
	byName := map[string]bool{}
	for _, f := range snap.Families {
		byName[f.Name] = true
	}
	for _, want := range []string{
		"bench_experiment_seconds", "bench_rows_total", "bench_experiments_total",
	} {
		if !byName[want] {
			t.Errorf("snapshot missing family %s", want)
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "bench.prom")
	if err := writeMetrics(reg, path, os.Stderr); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), `bench_experiment_seconds_count{experiment="E2"} 1`) {
		t.Errorf("metrics missing E2 timing:\n%.400s", text)
	}
}

// TestGoldenSuiteOutput pins the full-suite stdout at seed 42 to the
// checked-in golden file, serial and parallel: the harness's published
// numbers may never depend on worker count, and any change to them must
// show up as a reviewed golden diff.
func TestGoldenSuiteOutput(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all_seed42.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			pool := par.New(par.Config{Workers: workers})
			defer pool.Close()
			tables, err := run(eval.Exec{Pool: pool}, "all", 42)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			printTables(&buf, tables, false)
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("suite output diverges from testdata/all_seed42.golden (got %d bytes, want %d)",
					buf.Len(), len(want))
			}
		})
	}
}

// TestRunMeteredParallelMatchesPlainRun checks the metered path (which
// shards per-experiment timing across the pool) produces the same
// tables in the same order as the unmetered suite.
func TestRunMeteredParallelMatchesPlainRun(t *testing.T) {
	const seed = 42
	plain, err := run(eval.Exec{}, "all", seed)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool := par.New(par.Config{Workers: 4, Registry: reg})
	defer pool.Close()
	metered, err := runMetered(eval.Exec{Pool: pool}, "all", seed, reg, "bench-all-seed42", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(metered) != len(plain) {
		t.Fatalf("metered tables %d, plain %d", len(metered), len(plain))
	}
	for i := range plain {
		if metered[i].Render() != plain[i].Render() {
			t.Errorf("table %d (%s) diverges under metered parallel run", i, plain[i].ID)
		}
	}
}

// TestCPUProfileAndCostTable exercises the -pprof CPU path end to end:
// capture around a labeled experiment run, then print the go tool pprof
// commands that read the per-experiment cost table out of the capture.
// Both must name the file the capture wrote; a single-experiment run
// focuses on its own label, a suite run on an anchored template.
func TestCPUProfileAndCostTable(t *testing.T) {
	dir := t.TempDir()
	stop, err := startCPUProfile(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := runMetered(eval.Exec{}, "E3", 42, reg, "bench-e3-seed42", nil); err != nil {
		stop()
		t.Fatal(err)
	}
	stop()
	path := filepath.Join(dir, "cpu.pprof")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("missing cpu.pprof: %v", err)
	}
	var buf bytes.Buffer
	writePprofCommands(&buf, dir, selectIDs("E3"))
	for _, want := range []string{
		"go tool pprof -tags " + path + "\n",
		"go tool pprof -top -relative_percentages -tagfocus=experiment=E3 " + path + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("pprof commands %q lack %q", buf.String(), want)
		}
	}
	buf.Reset()
	writePprofCommands(&buf, dir, selectIDs("all"))
	if want := "-tagfocus=experiment='^ID$' " + path + "\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("suite pprof commands %q lack %q", buf.String(), want)
	}
}
