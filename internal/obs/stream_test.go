package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestLogBucketIndex(t *testing.T) {
	bounds := logBuckets
	cases := []struct {
		v    float64
		want float64 // expected upper bound (+Inf for overflow)
	}{
		{0, bounds[0]},             // non-positive clamps to the first bucket
		{-3, bounds[0]},            // negative too
		{1e-9, bounds[0]},          // underflow clamps
		{bounds[0], bounds[0]},     // exact power of two sits in its own bucket
		{1.0, 1.0},                 // 2^0 exactly
		{1.5, 2.0},                 // between powers rounds up
		{64, 64},                   // top finite bound
		{65, math.Inf(1)},          // overflow lands in +Inf
		{math.Inf(1), math.Inf(1)}, // infinity overflows
	}
	for _, c := range cases {
		i := logBucketIndex(c.v)
		var got float64
		if i >= len(bounds) {
			got = math.Inf(1)
		} else {
			got = bounds[i]
		}
		if got != c.want {
			t.Errorf("logBucketIndex(%g) -> bucket <= %g, want <= %g", c.v, got, c.want)
		}
	}
}

func TestLogHistogramSnapshotAndPrometheus(t *testing.T) {
	reg := NewRegistry()
	h := reg.LogHistogram("stage_cost_seconds", "help.")
	for _, v := range []float64{0.5e-6, 1e-3, 1e-3, 0.25, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	snap := reg.Snapshot()
	var m *MetricSnapshot
	for i, f := range snap.Families {
		if f.Name == "stage_cost_seconds" {
			m = &snap.Families[i].Metrics[0]
		}
	}
	if m == nil {
		t.Fatal("family missing from snapshot")
	}
	if m.Count != 5 {
		t.Errorf("snapshot count = %d, want 5", m.Count)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE stage_cost_seconds histogram",
		`stage_cost_seconds_bucket{le="+Inf"} 5`,
		"stage_cost_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// The 100s observation must only show up in the +Inf bucket: every
	// finite le="..." cumulative count stays at 4.
	if strings.Contains(text, `le="+Inf"} 4`) {
		t.Errorf("overflow observation missing from +Inf bucket:\n%s", text)
	}
}

func TestLogHistogramVecNilSafety(t *testing.T) {
	var v *LogHistogramVec
	h := v.With("x")
	h.Observe(1) // must not panic
	if h.Count() != 0 {
		t.Error("nil histogram must ignore observations")
	}
}

func TestQuantileEstimates(t *testing.T) {
	reg := NewRegistry()
	q := reg.Quantile("latency_seconds", "help.")
	if !math.IsNaN(q.Value(0.5)) {
		t.Error("empty estimator must report NaN")
	}
	// Fewer observations than the reservoir holds: quantiles are exact
	// nearest-rank values.
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i))
	}
	if got := q.Value(0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := q.Value(0.99); got != 99 {
		t.Errorf("p99 = %g, want 99", got)
	}
	if q.Count() != 100 {
		t.Errorf("Count = %d, want 100", q.Count())
	}
}

func TestQuantileDeterministicUnderSaturation(t *testing.T) {
	// Past the reservoir capacity the replacement stream is seeded from
	// a fixed constant, so two estimators fed the same sequence agree
	// exactly.
	reg1, reg2 := NewRegistry(), NewRegistry()
	qa := reg1.Quantile("x_seconds", "help.")
	qb := reg2.Quantile("x_seconds", "help.")
	for i := 0; i < 10*reservoirCap; i++ {
		v := float64(i%977) / 977
		qa.Observe(v)
		qb.Observe(v)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		if qa.Value(p) != qb.Value(p) {
			t.Errorf("p%g diverged: %g vs %g", 100*p, qa.Value(p), qb.Value(p))
		}
	}
}

func TestQuantilePrometheusAndJSON(t *testing.T) {
	reg := NewRegistry()
	qv := reg.QuantileVec("op_seconds", "help.", "op")
	for i := 1; i <= 10; i++ {
		qv.With("poll").Observe(float64(i))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE op_seconds summary",
		`op_seconds{op="poll",quantile="0.5"} 5`,
		`op_seconds{op="poll",quantile="0.99"} 10`,
		`op_seconds_sum{op="poll"} 55`,
		`op_seconds_count{op="poll"} 10`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// JSON round-trip, including a NaN quantile from an empty child.
	qv.With("idle")
	raw, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, raw)
	}
	found := false
	for _, f := range back.Families {
		if f.Name != "op_seconds" {
			continue
		}
		for _, m := range f.Metrics {
			if len(m.LabelValues) == 1 && m.LabelValues[0] == "idle" {
				found = true
				if len(m.Quantiles) == 0 || !math.IsNaN(m.Quantiles[0].Value) {
					t.Errorf("idle child quantiles = %+v, want NaN", m.Quantiles)
				}
			}
		}
	}
	if !found {
		t.Error("idle child missing after JSON round-trip")
	}
}

func TestQuantileNilSafety(t *testing.T) {
	var v *QuantileVec
	q := v.With("x")
	q.Observe(1)
	if q.Count() != 0 || !math.IsNaN(q.Value(0.5)) {
		t.Error("nil estimator must ignore observations and report NaN")
	}
}

// TestPrometheusEmptyRegistry pins the degenerate exposition: no
// families means no output at all, not a stray newline.
func TestPrometheusEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty registry produced %q", buf.String())
	}
}

// TestPrometheusLabeledOrderingDeterminism checks labeled children
// render in a stable order no matter the insertion schedule.
func TestPrometheusLabeledOrderingDeterminism(t *testing.T) {
	render := func(order []string) string {
		reg := NewRegistry()
		c := reg.CounterVec("reqs_total", "help.", "route")
		for _, r := range order {
			c.With(r).Inc()
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"alpha", "zeta", "mid"})
	b := render([]string{"zeta", "mid", "alpha"})
	if a != b {
		t.Errorf("exposition depends on insertion order:\n--- a\n%s--- b\n%s", a, b)
	}
	// And repeated renders of the same registry are identical bytes.
	reg := NewRegistry()
	c := reg.CounterVec("reqs_total", "help.", "route")
	for _, r := range []string{"b", "a", "c"} {
		c.With(r).Inc()
	}
	var one, two bytes.Buffer
	if err := reg.WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Error("repeated renders differ")
	}
}
