package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wallClockLines matches the lines of a metered run's output that read
// a clock: the report's wall-clock line and every *_seconds family (the
// stage wall-clock histogram among them). The golden filters them out.
var wallClockLines = regexp.MustCompile(`^  wall clock|^(# (HELP|TYPE) )?[a-z_]+_seconds(_bucket|_sum|_count)?[ {]`)

// TestMetricsGolden pins the packet-level engine's metered output:
// `mmtag-sim -tags 16 -seed 42 -metrics - -metrics-format text`, less
// the lines wallClockLines matches, is byte-identical to the checked-in
// golden, so the counters and histograms a memoized query replays
// (channel_budget_evals_total, channel_snr_db, sim_snr_queries_total)
// cannot drift. Regenerate with:
//
//	go run ./cmd/mmtag-sim -tags 16 -seed 42 -metrics - -metrics-format text | grep -Ev '^  wall clock|^(# (HELP|TYPE) )?[a-z_]+_seconds(_bucket|_sum|_count)?[ {]' > cmd/mmtag-sim/testdata/tags16_seed42_metrics.golden
func TestMetricsGolden(t *testing.T) {
	o := baseOptions()
	o.tags = 16
	o.duration = 0.2
	o.spread = 6
	o.sector = 55
	o.seed = 42
	o.metrics = "-"
	o.metricsFormat = "text"
	buf := &bytes.Buffer{}
	o.out = buf
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, line := range bytes.SplitAfter(buf.Bytes(), []byte("\n")) {
		if !wallClockLines.Match(line) {
			got.Write(line)
		}
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "tags16_seed42_metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), golden) {
		t.Errorf("metered output drifted from golden:\n--- golden ---\n%s--- got ---\n%s", golden, got.Bytes())
	}
}
