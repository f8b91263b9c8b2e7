package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deployOptions mirrors the CLI defaults for a multi-AP run, matching
//
//	mmtag-sim -aps 4 -tags 64 -seed 42
func deployOptions() options {
	o := baseOptions()
	o.aps = 4
	o.tags = 64
	o.duration = 0.2
	o.seed = 42
	return o
}

// TestDeploymentGolden pins the acceptance criterion for the multi-AP
// path: `mmtag-sim -aps 4 -tags 64 -seed 42` output is byte-identical
// at -parallel 1 and -parallel 8, and matches the checked-in golden.
// Regenerate with:
//
//	go run ./cmd/mmtag-sim -aps 4 -tags 64 -seed 42 > cmd/mmtag-sim/testdata/aps4_tags64_seed42.golden
func TestDeploymentGolden(t *testing.T) {
	render := func(workers int) string {
		o := deployOptions()
		o.parallel = workers
		buf := &bytes.Buffer{}
		o.out = buf
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	if got := render(8); got != serial {
		t.Errorf("deployment output at 8 workers differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial, got)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "aps4_tags64_seed42.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if serial != string(golden) {
		t.Errorf("deployment output drifted from golden:\n--- golden ---\n%s--- got ---\n%s",
			golden, serial)
	}
}

// TestDeploymentTraceGolden pins the association history of the same
// run: every association and handoff event, with its SNR to 0.1 dB, is
// byte-identical at -parallel 1 and -parallel 8 and matches the
// checked-in JSONL. Regenerate with:
//
//	go run ./cmd/mmtag-sim -aps 4 -tags 64 -seed 42 -trace cmd/mmtag-sim/testdata/aps4_tags64_seed42_trace.golden
func TestDeploymentTraceGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "aps4_tags64_seed42_trace.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		o := deployOptions()
		o.parallel = workers
		o.trace = filepath.Join(t.TempDir(), "trace.jsonl")
		o.out = &bytes.Buffer{}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(o.trace)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("deployment trace at %d workers drifted from golden:\n--- golden ---\n%s--- got ---\n%s",
				workers, golden, got)
		}
	}
}

// TestDeploymentReportShape spot-checks the sections the golden relies
// on, so a drift failure comes with a readable cause.
func TestDeploymentReportShape(t *testing.T) {
	o := deployOptions()
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"4 APs (2x2 grid, 16x16 m)",
		"cells:",
		"deployment:",
		"aggregate goodput",
		"handoffs:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("deployment report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wall clock") {
		t.Errorf("deployment report must not contain wall-clock lines:\n%s", out)
	}
}

// TestDeploymentRejectsIncompatibleFlags checks the -aps path refuses
// the single-run-only sinks it cannot shard deterministically.
func TestDeploymentRejectsIncompatibleFlags(t *testing.T) {
	o := deployOptions()
	o.sweep = 3
	if err := run(o); err == nil {
		t.Error("-aps with -sweep must error")
	}
	o = deployOptions()
	o.aps = 0
	if err := run(o); err == nil {
		t.Error("-aps 0 must error")
	}
}

// TestDeploymentPprofCapture checks the -aps path captures cpu, heap
// and allocs profiles like the single-AP path does.
func TestDeploymentPprofCapture(t *testing.T) {
	o := deployOptions()
	o.pprofDir = filepath.Join(t.TempDir(), "profiles")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "allocs.pprof"} {
		st, err := os.Stat(filepath.Join(o.pprofDir, name))
		if err != nil {
			t.Fatalf("missing profile %s: %v", name, err)
		}
		if name != "cpu.pprof" && st.Size() == 0 {
			t.Errorf("profile %s is empty", name)
		}
	}
}

// TestDeploymentSinks drives the -aps path's trace and metrics outputs.
func TestDeploymentSinks(t *testing.T) {
	dir := t.TempDir()
	o := deployOptions()
	o.tags = 12
	o.aps = 2
	o.duration = 0.04
	o.trace = filepath.Join(dir, "deploy.jsonl")
	o.metrics = filepath.Join(dir, "deploy.prom")
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"assoc"`) {
		t.Errorf("deployment trace missing assoc events:\n%.400s", tr)
	}
	m, err := os.ReadFile(o.metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"net_aps", "net_cell_goodput_bps"} {
		if !strings.Contains(string(m), family) {
			t.Errorf("deployment metrics missing %s:\n%.400s", m, family)
		}
	}
}
