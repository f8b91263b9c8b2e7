package net

import (
	"reflect"
	"testing"

	"mmtag/internal/fault"
)

func liveCfg(seed int64) Config {
	return Config{
		APs:        4,
		Tags:       32,
		MobileFrac: 0.5,
		Duration:   0.04,
		Seed:       seed,
	}
}

// TestRunnerMatchesRun pins the refactor: stepping a Runner
// cfg.Epochs times produces the identical Report Run does.
func TestRunnerMatchesRun(t *testing.T) {
	d1, err := New(liveCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := d1.Run()
	if err != nil {
		t.Fatal(err)
	}

	d2, err := New(liveCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	r := d2.Runner(0)
	for e := 0; e < 4; e++ {
		if err := r.Step(); err != nil {
			t.Fatalf("step %d: %v", e, err)
		}
	}
	got := r.Snapshot()
	// Snapshot reports the running mean over completed epochs; with
	// exactly cfg.Epochs steps the totals must agree with Run.
	if got.Epochs != want.Epochs || got.FramesOK != want.FramesOK ||
		got.FramesLost != want.FramesLost || got.Discovered != want.Discovered ||
		got.DuplicatePolls != want.DuplicatePolls {
		t.Fatalf("snapshot totals diverge from Run:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(got.Handoffs, want.Handoffs) {
		t.Fatalf("handoff logs diverge: got %d want %d", len(got.Handoffs), len(want.Handoffs))
	}
	for c := range want.Cells {
		g, w := got.Cells[c], want.Cells[c]
		if g.PollCycles != w.PollCycles || g.FramesOK != w.FramesOK ||
			g.Discovered != w.Discovered || g.TagsServed != w.TagsServed {
			t.Fatalf("cell %d diverges: got %+v want %+v", c, g, w)
		}
	}
}

// TestRunnerStepsPastConfiguredEpochs checks the daemon's use: a Runner
// keeps stepping deterministically beyond cfg.Epochs, snapshots stay
// self-consistent, and the handoff cap bounds the retained log without
// losing the total count.
func TestRunnerStepsPastConfiguredEpochs(t *testing.T) {
	cfg := liveCfg(3)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Runner(2)
	const steps = 8 // double the configured 4 epochs
	for e := 0; e < steps; e++ {
		if err := r.Step(); err != nil {
			t.Fatalf("step %d: %v", e, err)
		}
	}
	if r.Epochs() != steps {
		t.Fatalf("Epochs() = %d, want %d", r.Epochs(), steps)
	}
	snap := r.Snapshot()
	if snap.Epochs != steps {
		t.Fatalf("snapshot epochs = %d, want %d", snap.Epochs, steps)
	}
	if len(snap.Handoffs) > 2 {
		t.Fatalf("handoff cap leaked: kept %d > 2", len(snap.Handoffs))
	}
	if r.handoffs < len(snap.Handoffs) {
		t.Fatalf("total handoffs %d < retained %d", r.handoffs, len(snap.Handoffs))
	}
	var sum float64
	for _, c := range snap.Cells {
		sum += c.GoodputBps
	}
	if diff := snap.AggregateGoodputBps - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("aggregate %g != cell sum %g", snap.AggregateGoodputBps, sum)
	}
	// Snapshot must be detached from the Runner's state.
	snap.Cells[0].FramesOK = -1
	if r.rep.Cells[0].FramesOK == -1 {
		t.Fatal("snapshot shares cell storage with the runner")
	}
}

// TestTagStatesAndSetFaults covers the daemon-facing accessors.
func TestTagStatesAndSetFaults(t *testing.T) {
	cfg := liveCfg(5)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := d.TagStates()
	if len(ts) != cfg.Tags {
		t.Fatalf("TagStates returned %d entries, want %d", len(ts), cfg.Tags)
	}
	for i, ti := range ts {
		if int(ti.ID) != i+1 {
			t.Fatalf("tag %d has ID %d, want %d", i, ti.ID, i+1)
		}
		if ti.Serving < 0 || ti.Serving >= cfg.APs {
			t.Fatalf("tag %d serving AP %d out of range", ti.ID, ti.Serving)
		}
	}
	if d.Faults() != nil {
		t.Fatal("fresh deployment has a fault plan")
	}
	plan := &fault.Plan{AckLoss: &fault.AckLossPlan{Prob: 0.5}}
	d.SetFaults(plan)
	if d.Faults() != plan {
		t.Fatal("SetFaults did not swap the plan")
	}
	r := d.Runner(0)
	if err := r.Step(); err != nil {
		t.Fatalf("step with swapped plan: %v", err)
	}
	d.SetFaults(nil)
	if d.Faults() != nil {
		t.Fatal("SetFaults(nil) did not clear the plan")
	}
}
