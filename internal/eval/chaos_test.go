package eval

import (
	"strings"
	"testing"

	"mmtag/internal/fault"
	"mmtag/internal/rfmath"
)

// TestChaosExperimentIDs pins the chaos sub-suite selection.
func TestChaosExperimentIDs(t *testing.T) {
	got := ChaosExperimentIDs()
	want := []string{"R1", "R2", "R3"}
	if len(got) != len(want) {
		t.Fatalf("ChaosExperimentIDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chaos IDs %v, want %v", got, want)
		}
	}
	all := strings.Join(ExperimentIDs(), ",")
	for _, id := range want {
		if !strings.Contains(all, id) {
			t.Fatalf("chaos experiment %s missing from the full suite", id)
		}
	}
}

// TestChaosBoundedRecovery runs one brownout churn scenario end to end
// and asserts the robustness SLOs the R2 table reports: starved tags
// are evicted, rediscovered when awake, and recovery latency stays
// bounded. This is the chaos-smoke anchor CI greps for.
func TestChaosBoundedRecovery(t *testing.T) {
	tb := (*Testbed)(nil).orDefault()
	plan := &fault.Plan{Brownout: &fault.BrownoutPlan{
		IncidentPowerW: rfmath.FromDBm(-9), PeriodS: 0.03,
	}}
	faulted, baseline, err := chaosRun(tb, 8, 42, plan, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	rec := faulted.Recovery
	if rec == nil {
		t.Fatal("faulted run missing RecoveryReport")
	}
	if rec.Evictions == 0 || rec.Rediscoveries == 0 {
		t.Fatalf("churn must evict and rediscover (evictions=%d rediscoveries=%d)",
			rec.Evictions, rec.Rediscoveries)
	}
	if rec.MaxRecoveryCycles > 256 {
		t.Fatalf("recovery latency unbounded: max %d cycles", rec.MaxRecoveryCycles)
	}
	if baseline.Recovery != nil {
		t.Fatal("baseline run must not carry a RecoveryReport")
	}
	if r := retention(faulted, baseline); r <= 0 || r > 1 {
		t.Fatalf("goodput retention %g out of (0,1]", r)
	}
}

// TestChaosTablesDeterministic re-runs R3 (the cheapest chaos table)
// and demands byte-identical renders — the fault-injected experiments
// obey the same seed-purity contract as the rest of the suite.
func TestChaosTablesDeterministic(t *testing.T) {
	a := runTables(t, "R3", 7)[0]
	b := runTables(t, "R3", 7)[0]
	if a.Render() != b.Render() {
		t.Fatalf("R3 renders diverge:\n%s\n%s", a.Render(), b.Render())
	}
	if len(a.Rows) != 3 {
		t.Fatalf("R3 rows = %d, want 3", len(a.Rows))
	}
}
