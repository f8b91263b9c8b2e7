package benchfmt

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func combined() *Report {
	return &Report{
		Label: "base",
		Benchmarks: []Result{
			{Name: "E1", NsOp: 10_000_000, AllocsOp: 10, BytesOp: 100, Rows: 5},
			{Name: "E2", NsOp: 20_000_000, AllocsOp: 0, BytesOp: 0, Rows: 3},
			{Name: "LOAD/mix", Suite: "load", NsOp: 5_000_000, BytesOp: 1_000_000, Rows: 0},
		},
	}
}

// TestCompareSuiteScoping pins the reason the suite field exists: a run
// that only measured one suite gates against a combined baseline
// without tripping over the other suite's rows.
func TestCompareSuiteScoping(t *testing.T) {
	base := combined()

	// mmtag-bench's view: eval rows only. The load row must not be
	// reported missing.
	evalOnly := &Report{Benchmarks: []Result{
		{Name: "E1", NsOp: 10_000_000, AllocsOp: 10, BytesOp: 100, Rows: 5},
		{Name: "E2", NsOp: 20_000_000, AllocsOp: 0, BytesOp: 0, Rows: 3},
	}}
	if problems := Compare(evalOnly, base, 15, 0); len(problems) != 0 {
		t.Fatalf("eval-only run vs combined baseline: %v", problems)
	}

	// mmtag-load's view: the load row only; eval rows are out of scope,
	// but a vanished load row in a load-suite run still gates.
	loadOnly := &Report{Benchmarks: []Result{
		{Name: "LOAD/mix", Suite: "load", NsOp: 5_500_000, BytesOp: 900_000, Rows: 0},
	}}
	if problems := Compare(loadOnly, base, 15, 0); len(problems) != 0 {
		t.Fatalf("load-only run vs combined baseline: %v", problems)
	}
	renamed := &Report{Benchmarks: []Result{
		{Name: "LOAD/other", Suite: "load", NsOp: 5_000_000, Rows: 0},
	}}
	problems := Compare(renamed, base, 15, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
		t.Fatalf("missing load row not flagged: %v", problems)
	}

	// A load row whose error count moved off the baseline fails the
	// exact row gate — the channel that turns 5xx into a regression.
	errored := &Report{Benchmarks: []Result{
		{Name: "LOAD/mix", Suite: "load", NsOp: 5_000_000, Rows: 7},
	}}
	problems = Compare(errored, base, 15, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "row count changed") {
		t.Fatalf("load error rows not flagged: %v", problems)
	}

	// p99 latency regression past the tolerance fails the ns gate.
	slow := &Report{Benchmarks: []Result{
		{Name: "LOAD/mix", Suite: "load", NsOp: 9_000_000, Rows: 0},
	}}
	problems = Compare(slow, base, 15, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "ns/op regressed") {
		t.Fatalf("load latency regression not flagged: %v", problems)
	}

	// A same-name row in a different suite is a different row.
	crossSuite := &Report{Benchmarks: []Result{
		{Name: "E1", Suite: "load", NsOp: 1, Rows: 0},
	}}
	problems = Compare(crossSuite, base, 0, 0)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
		t.Fatalf("cross-suite name collision not isolated: %v", problems)
	}
}

func TestWriteLoadRoundTripOmitsEmptySuite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	want := combined()
	if err := Write(want, path, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 3 || got.Benchmarks[2].Suite != "load" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Eval rows must serialize without a suite key, keeping the
	// committed baseline diff-stable against the pre-suite format.
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(body), `"suite"`) != 1 {
		t.Fatalf("suite key must be omitted for eval rows:\n%s", body)
	}
}
