// Package eval is the experiment harness that regenerates the paper-style
// evaluation: result tables and the experiment implementations (E1-E22,
// A1-A2, R1-R3, T2-T3) indexed in DESIGN.md section 4. Each experiment
// is a pure function of its parameters and a seed, so benches and the
// CLI reproduce identical numbers.
package eval

import (
	"fmt"
	"strings"
)

// Experiment is one runnable entry of the evaluation suite. Run must be
// a pure function of (x, tb, seed): no experiment reads another's
// state, which is what lets the suite itself shard across a pool.
type Experiment struct {
	ID  string
	Run func(x Exec, tb *Testbed, seed int64) ([]*Table, error)
}

// one adapts a single-table experiment to the registry shape.
func one(run func(x Exec, tb *Testbed, seed int64) (*Table, error)) func(Exec, *Testbed, int64) ([]*Table, error) {
	return func(x Exec, tb *Testbed, seed int64) ([]*Table, error) {
		t, err := run(x, tb, seed)
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
}

// Experiments returns the full suite in report order. The slice is
// freshly allocated; callers may reorder or filter it.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E1RetroPattern(tb) })},
		{"E2", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E2LinkBudget(tb) })},
		{"E3", one(func(x Exec, _ *Testbed, seed int64) (*Table, error) { return e3BERvsEbN0(x, seed) })},
		{"E4", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E4BERvsDistance(tb) })},
		{"E5", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E5Throughput(tb) })},
		{"E6", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E6AngleRobustness(tb) })},
		{"E7", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return e7MultiTag(x, tb, seed) })},
		{"E8", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E8EnergyPerBit(tb) })},
		{"E9", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return e9Cancellation(x, tb, seed) })},
		{"E10", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return e10Discovery(x, tb, seed) })},
		{"E11", func(x Exec, tb *Testbed, seed int64) ([]*Table, error) { return e11SwitchLimit(x, tb, seed) }},
		{"E12", one(func(x Exec, _ *Testbed, seed int64) (*Table, error) { return e12CodedPER(x, seed) })},
		{"E13", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E13BatteryFree(tb) })},
		{"E14", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return e14DiscoveryAblation(x, tb, seed) })},
		{"E15", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return e15Blockage(x, tb, seed) })},
		{"E16", one(func(x Exec, _ *Testbed, seed int64) (*Table, error) { return e16Multipath(x, seed) })},
		{"E17", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return e17Interference(x, tb, seed) })},
		{"E18", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return E18RoomClutter(tb) })},
		{"E19", one(func(x Exec, _ *Testbed, seed int64) (*Table, error) { return e19APScaling(x, seed) })},
		{"E20", one(func(x Exec, _ *Testbed, seed int64) (*Table, error) { return e20HandoffLatency(x, seed) })},
		{"E21", one(func(x Exec, _ *Testbed, seed int64) (*Table, error) { return e21EdgeReuse(x, seed) })},
		{"E22", one(func(x Exec, _ *Testbed, seed int64) (*Table, error) { return e22ScaleTiers(x, seed) })},
		{"A1", one(func(x Exec, tb *Testbed, _ int64) (*Table, error) { return A1RangeVsArraySize(tb) })},
		{"A2", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return a2SDMChains(x, tb, seed) })},
		{"R1", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return r1BurstBlockage(x, tb, seed) })},
		{"R2", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return r2TagChurn(x, tb, seed) })},
		{"R3", one(func(x Exec, tb *Testbed, seed int64) (*Table, error) { return r3AckLoss(x, tb, seed) })},
		{"T2", one(func(x Exec, _ *Testbed, _ int64) (*Table, error) { return T2PowerBreakdown() })},
		{"T3", one(func(x Exec, _ *Testbed, _ int64) (*Table, error) { return T3EnergyCompare() })},
	}
}

// ExperimentIDs returns the suite's IDs in report order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// ChaosExperimentIDs returns the fault-injection soak subset (R1-R3) in
// report order — what mmtag-bench -faults runs.
func ChaosExperimentIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		if strings.HasPrefix(e.ID, "R") {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// NetExperimentIDs returns the multi-AP deployment subset (E19-E22) in
// report order — what mmtag-bench -aps runs.
func NetExperimentIDs() []string {
	return []string{"E19", "E20", "E21", "E22"}
}

// RunExperiment runs one experiment by (case-insensitive) ID on x.
func RunExperiment(x Exec, id string, tb *Testbed, seed int64) ([]*Table, error) {
	tb = tb.orDefault()
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e.Run(x, tb, seed)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want E1..E22, A1, A2, R1..R3, T2, T3, all)", id)
}

// RunSuite runs every experiment and returns the full paper-style table
// set in report order. Experiments shard across x.Pool (and their trial
// grids shard further on the same pool — the pool's help-first design
// makes the nesting deadlock-free); results land in fixed slots, so the
// output is byte-identical to a serial run at any pool size.
func RunSuite(x Exec, tb *Testbed, seed int64) ([]*Table, error) {
	tb = tb.orDefault()
	exps := Experiments()
	results := make([][]*Table, len(exps))
	err := x.Pool.Map(x.context(), len(exps), func(i int) error {
		tabs, err := exps[i].Run(x, tb, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", exps[i].ID, err)
		}
		results[i] = tabs
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Table
	for _, tabs := range results {
		out = append(out, tabs...)
	}
	return out, nil
}
