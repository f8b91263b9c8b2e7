// Package benchfmt is the shared benchmark-report format behind the
// repo's performance gates: the BENCH_<label>.json schema written by
// cmd/mmtag-bench (evaluation-suite regeneration cost) and
// cmd/mmtag-load (service latency under closed-loop load),
// cmd/mmtag-bench's "tput" rows (demodulation throughput per core),
// and the comparison rules `make bench-check` applies against the
// committed baseline. Rows carry a suite discriminator so one baseline
// file can hold all these populations: a comparison only judges baseline rows whose
// suite the current run measured, which lets mmtag-bench gate the eval
// rows without tripping over load rows and vice versa.
//
// DESIGN.md: section 10.6 (load benchmark rows and the suite-scoped
// gate).
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Result is one benchmark row. For the eval suite (empty Suite) the
// fields are wall time, heap traffic and table-row count of one
// experiment regeneration, each the minimum over the measurement reps.
// For the "load" suite NsOp carries the p99 request latency, BytesOp
// the p50 (both in nanoseconds), Rows the count of server errors plus
// client timeouts (baseline 0, so the exact row-count gate turns any
// 5xx into a regression), and AllocsOp is unused.
// For the "tput" suite (demodulation throughput per core, written by
// mmtag-bench -experiment tput or all) NsOp is wall nanoseconds per
// million tag·symbols on a single worker (minimum over reps — a
// hardware-normalized rate, so the percentage gate reads directly as a
// throughput regression), BytesOp the tag·symbol workload of one
// regeneration or batch pass, Rows the table-row or batch-lane count,
// and AllocsOp is unused (the batch path's allocation discipline is
// enforced by AllocsPerRun guards in internal/ap and internal/dsp).
type Result struct {
	Name     string `json:"name"`
	Suite    string `json:"suite,omitempty"`
	NsOp     int64  `json:"ns_op"`
	AllocsOp uint64 `json:"allocs_op"`
	BytesOp  uint64 `json:"bytes_op"`
	Rows     int    `json:"rows"`
}

// Report is the persisted benchmark file format (BENCH_<label>.json).
type Report struct {
	Label      string   `json:"label"`
	GoVersion  string   `json:"go_version"`
	Seed       int64    `json:"seed"`
	Reps       int      `json:"reps"`
	Benchmarks []Result `json:"benchmarks"`
}

// Write renders the report as indented JSON to path ("-" = w).
func Write(report *Report, path string, w io.Writer) error {
	body, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if path == "-" {
		_, err = w.Write(body)
		return err
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote benchmark report to %s\n", path)
	return nil
}

// Load reads a BENCH_*.json file.
func Load(path string) (*Report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var report Report
	if err := json.Unmarshal(body, &report); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &report, nil
}

// NsFloor is the baseline wall time below which the ns/op check is
// skipped: a sub-millisecond measurement is dominated by scheduler and
// timer noise, so a percentage comparison of its minimum is
// meaningless — one preemption doubles it. The allocation and
// row-count gates still cover those rows, and any real slowdown large
// enough to matter shows up in the millisecond-scale rows that
// exercise the same code.
const NsFloor = int64(time.Millisecond)

// Compare checks cur against base and returns one line per regression:
// a baseline row missing from the current run, a row-count change (the
// output shape moved — for load rows, server errors appeared), an
// allocs/op increase beyond allocsTolPct percent, or an ns/op increase
// beyond nsTolPct percent. Only baseline rows from suites the current
// run measured are judged, so a partial run (one suite) gates cleanly
// against a combined baseline. nsTolPct <= 0 disables the time check
// (wall time is machine-dependent, so CI uses a generous tolerance).
// allocsTolPct <= 0 demands exact allocation counts; a hair's breadth
// of tolerance (CI uses 0.01%) absorbs GC-timing noise — automatic GC
// cycles flush sync.Pool caches mid-run at schedule-dependent points,
// refilling them costs a handful of allocations — while still catching
// any per-iteration leak, which shows up thousands of allocations at a
// time.
func Compare(cur, base *Report, nsTolPct, allocsTolPct float64) []string {
	type key struct{ suite, name string }
	byKey := make(map[key]Result, len(cur.Benchmarks))
	suites := make(map[string]bool)
	for _, b := range cur.Benchmarks {
		byKey[key{b.Suite, b.Name}] = b
		suites[b.Suite] = true
	}
	var problems []string
	for _, old := range base.Benchmarks {
		if !suites[old.Suite] {
			continue
		}
		now, ok := byKey[key{old.Suite, old.Name}]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from current run", old.Name))
			continue
		}
		if now.Rows != old.Rows {
			problems = append(problems, fmt.Sprintf("%s: row count changed %d -> %d", old.Name, old.Rows, now.Rows))
		}
		allocLimit := float64(old.AllocsOp) * (1 + allocsTolPct/100)
		if allocsTolPct <= 0 {
			allocLimit = float64(old.AllocsOp)
		}
		if float64(now.AllocsOp) > allocLimit {
			problems = append(problems, fmt.Sprintf("%s: allocs/op regressed %d -> %d",
				old.Name, old.AllocsOp, now.AllocsOp))
		}
		if nsTolPct > 0 && old.NsOp >= NsFloor {
			limit := float64(old.NsOp) * (1 + nsTolPct/100)
			if float64(now.NsOp) > limit {
				problems = append(problems, fmt.Sprintf("%s: ns/op regressed %d -> %d (>%g%% over baseline)",
					old.Name, old.NsOp, now.NsOp, nsTolPct))
			}
		}
	}
	return problems
}
