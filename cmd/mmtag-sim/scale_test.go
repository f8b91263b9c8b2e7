package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmtag/internal/link"
)

// scaleOptions mirrors the CLI defaults for a tiered scale run, matching
//
//	mmtag-sim -scale 20000 -aps 9 -seed 42
func scaleOptions() options {
	o := baseOptions()
	o.scale = 20000
	o.aps = 9
	o.seed = 42
	return o
}

// TestScaleGolden pins the scale path's acceptance criterion: the
// report is byte-identical at -parallel 1 and -parallel 8 and matches
// the checked-in golden, on a complete 3x3 grid, on a ragged one (7
// APs leave two empty slots in the last row, where association falls
// back to the exhaustive scan) and for a million tags on the
// link-budget tier over 256 APs. Regenerate with:
//
//	go run ./cmd/mmtag-sim -scale 20000 -aps 9 -seed 42 > cmd/mmtag-sim/testdata/scale20000_aps9_seed42.golden
//	go run ./cmd/mmtag-sim -scale 20000 -aps 7 -seed 42 > cmd/mmtag-sim/testdata/scale20000_aps7_seed42.golden
//	go run ./cmd/mmtag-sim -scale 1000000 -aps 256 -tiers c -seed 42 > cmd/mmtag-sim/testdata/scale1000000_aps256_tiersc_seed42.golden
func TestScaleGolden(t *testing.T) {
	for _, tc := range []struct {
		tags, aps int
		tiers     string
		golden    string
	}{
		{20000, 9, "", "scale20000_aps9_seed42.golden"},
		{20000, 7, "", "scale20000_aps7_seed42.golden"},
		{1000000, 256, "c", "scale1000000_aps256_tiersc_seed42.golden"},
	} {
		render := func(workers int) string {
			o := scaleOptions()
			o.scale = tc.tags
			o.aps = tc.aps
			o.tiers = tc.tiers
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
			t.Errorf("%s: scale output at 8 workers differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				tc.golden, serial, got)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if serial != string(golden) {
			t.Errorf("scale output drifted from %s:\n--- golden ---\n%s--- got ---\n%s",
				tc.golden, golden, serial)
		}
	}
}

// TestScaleReportShape spot-checks the report sections (including the
// large-grid elision) so golden drift comes with a readable cause.
func TestScaleReportShape(t *testing.T) {
	o := scaleOptions()
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"scale run, 20000 tags over 9 APs (3x3 grid",
		"fidelity ladder:",
		"tier a",
		"tier b",
		"tier c",
		"deployment:",
		"cells:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scale report missing %q:\n%s", want, out)
		}
	}

	// Large grids elide per-cell lines but keep deterministic extremes.
	o = scaleOptions()
	o.aps = 64
	o.scale = 5000
	o.tiers = "c"
	buf = &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"per-cell lines elided", "lightest ap", "heaviest ap"} {
		if !strings.Contains(out, want) {
			t.Errorf("large-grid scale report missing %q:\n%s", want, out)
		}
	}
}

// TestScaleRejectsIncompatibleFlags checks the -scale path refuses the
// poll-level-only sinks and that -tiers demands -scale.
func TestScaleRejectsIncompatibleFlags(t *testing.T) {
	o := scaleOptions()
	o.sweep = 3
	if err := run(o); err == nil {
		t.Error("-scale with -sweep must error")
	}
	o = scaleOptions()
	o.faults = "ackloss=0.2"
	if err := run(o); err == nil {
		t.Error("-scale with -faults must error")
	}
	o = scaleOptions()
	o.trace = "trace.jsonl"
	if err := run(o); err == nil {
		t.Error("-scale with -trace must error")
	}
	o = baseOptions()
	o.tiers = "c"
	if err := run(o); err == nil {
		t.Error("-tiers without -scale must error")
	}
	o = scaleOptions()
	o.tiers = "bogus"
	if err := run(o); err == nil {
		t.Error("malformed -tiers must error")
	}
}

func TestParseTiers(t *testing.T) {
	th, err := parseTiers("")
	if err != nil || th != link.DefaultThresholds() {
		t.Fatalf("empty spec: %+v, %v", th, err)
	}
	th, err = parseTiers("c")
	if err != nil || th.Pick(1000) != link.TierBudget {
		t.Fatalf("'c' spec: %+v, %v", th, err)
	}
	th, err = parseTiers("a=40,b=20")
	if err != nil || th.WaveformMinDB != 40 || th.SymbolMinDB != 20 {
		t.Fatalf("explicit spec: %+v, %v", th, err)
	}
	th, err = parseTiers("b=10")
	if err != nil || th.SymbolMinDB != 10 || th.WaveformMinDB != link.DefaultThresholds().WaveformMinDB {
		t.Fatalf("partial spec: %+v, %v", th, err)
	}
	for _, bad := range []string{"a", "a=x", "d=5", "a=1;b=2"} {
		if _, err := parseTiers(bad); err == nil {
			t.Errorf("parseTiers(%q) should error", bad)
		}
	}
}
