package net

import (
	"math"
	"reflect"
	"testing"

	"mmtag/internal/geom"
	"mmtag/internal/par"
	"mmtag/internal/trace"
)

// mobileCfg is a deployment that actually hands tags off: half the
// population walks for several one-second epochs across a 2x2 grid.
func mobileCfg(seed int64) Config {
	return Config{
		APs:        4,
		Tags:       24,
		MobileFrac: 0.5,
		Epochs:     6,
		Duration:   0.06,
		Seed:       seed,
	}
}

// runWithTrace runs cfg and returns the report plus the serialized
// association history (assoc + handoff events in emission order).
func runWithTrace(t *testing.T, cfg Config) (*Report, []trace.Event) {
	t.Helper()
	rec := trace.NewRecorder(0)
	cfg.Trace = rec
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec.Events()
}

// TestDeterministicAcrossParallelism is the deployment's core
// reproducibility contract: the same seed yields an identical report
// AND an identical association/handoff history whether the cells run
// serially or on an 8-worker pool.
func TestDeterministicAcrossParallelism(t *testing.T) {
	serialRep, serialHist := runWithTrace(t, mobileCfg(42))

	pool := par.New(par.Config{Workers: 8})
	defer pool.Close()
	cfg := mobileCfg(42)
	cfg.Pool = pool
	parRep, parHist := runWithTrace(t, cfg)

	if !reflect.DeepEqual(serialRep, parRep) {
		t.Errorf("report differs between serial and 8-worker runs:\nserial: %+v\nparallel: %+v",
			serialRep, parRep)
	}
	if !reflect.DeepEqual(serialHist, parHist) {
		t.Errorf("association history differs: %d vs %d events", len(serialHist), len(parHist))
	}
	if len(serialHist) == 0 {
		t.Error("expected association events in the trace")
	}
}

// TestHandoffsOccurAndAreBounded: mobility across cell boundaries must
// produce handoffs, and every latency must respect [base, base+jitter).
func TestHandoffsOccurAndAreBounded(t *testing.T) {
	rep, _ := runWithTrace(t, mobileCfg(42))
	if len(rep.Handoffs) == 0 {
		t.Fatal("mobile deployment produced no handoffs")
	}
	cfg := mobileCfg(42).withDefaults()
	for _, h := range rep.Handoffs {
		if h.LatencyS < handoffBaseS || h.LatencyS >= handoffBaseS+handoffJitterS {
			t.Errorf("handoff latency %.4fms outside [%.4f, %.4f)ms",
				h.LatencyS*1e3, handoffBaseS*1e3, (handoffBaseS+handoffJitterS)*1e3)
		}
		if h.From == h.To {
			t.Errorf("handoff tag %d to its own AP %d", h.Tag, h.From)
		}
		if h.Epoch < 1 || h.Epoch >= cfg.Epochs {
			t.Errorf("handoff at impossible epoch %d", h.Epoch)
		}
	}
}

// TestEquidistantTieBreaksLowestIndex pins the tie rule: a tag exactly
// midway between two APs associates with the lower index and, once
// associated, never flaps — the strict > comparison plus the hysteresis
// margin both keep it put.
func TestEquidistantTieBreaksLowestIndex(t *testing.T) {
	d, err := New(Config{APs: 2, Cols: 2, Tags: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// APs sit at (4, 0) and (12, 0); x = 8 is exactly equidistant.
	mid := geom.Point{X: 8, Y: 3}
	if got, _ := d.assign(mid.X, mid.Y); got != 0 {
		t.Errorf("equidistant tag associated with AP %d, want 0", got)
	}
	// Force the single tag onto the midline, serving either AP; a
	// re-association pass must never move it (SNRs are exactly equal, so
	// no candidate clears the margin — or even the strict >).
	tag := d.tags[0]
	tag.pos, tag.mobile = mid, false
	for _, serving := range []int{0, 1} {
		tag.serving = serving
		if hs := d.reassociate(1, make([]int, 2)); len(hs) != 0 {
			t.Errorf("equidistant tag handed off from AP %d: %+v", serving, hs)
		}
	}
	// Even a strictly better neighbour must not win without clearing the
	// hysteresis margin: just over the midline, still no handoff.
	tag.serving = 1
	tag.pos = geom.Point{X: 7.5, Y: 3}
	if hs := d.reassociate(2, make([]int, 2)); len(hs) != 0 {
		t.Errorf("sub-hysteresis SNR delta triggered a handoff: %+v", hs)
	}
	// A suspect tag drops the margin to zero and escapes immediately.
	tag.suspect = true
	hs := d.reassociate(3, make([]int, 2))
	if len(hs) != 1 || hs[0].Reason != "health" || hs[0].To != 0 {
		t.Errorf("suspect tag did not take the health handoff: %+v", hs)
	}
}

// TestGridGeometry pins the AP layout contract the docs describe.
func TestGridGeometry(t *testing.T) {
	d, err := New(Config{APs: 6, Cols: 3, Tags: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.rows != 2 || d.cols != 3 {
		t.Fatalf("grid %dx%d, want 2x3", d.rows, d.cols)
	}
	if w, h := d.Width(), d.Height(); w != 24 || h != 16 {
		t.Fatalf("area %gx%g m, want 24x16", w, h)
	}
	// AP 4 is row 1, col 1: south-edge midpoint of its cell.
	if got := d.APPos(4); got.X != 12 || got.Y != 8 {
		t.Fatalf("AP 4 at %+v, want (12, 8)", got)
	}
	for _, tg := range d.tags {
		if tg.pos.X < 0 || tg.pos.X > 24 || tg.pos.Y < 0.5 || tg.pos.Y > 16 {
			t.Errorf("tag %d placed outside the area: %+v", tg.id, tg.pos)
		}
	}
}

// TestMobilityReflectsAtBoundaries: a fast mobile tag stays inside the
// deployment area through many epochs.
func TestMobilityReflectsAtBoundaries(t *testing.T) {
	cfg := Config{APs: 1, Tags: 8, MobileFrac: 1, SpeedMps: 5, Epochs: 2, Seed: 3}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		d.step()
		for _, tg := range d.tags {
			if tg.pos.X < 0 || tg.pos.X > d.Width() || tg.pos.Y < 0.5 || tg.pos.Y > d.Height() {
				t.Fatalf("step %d: tag %d escaped to %+v", i, tg.id, tg.pos)
			}
		}
	}
}

// TestEdgeInterferenceDecaysWithReuse: the probe SINR at a cell-edge
// position improves (and the in-range interferer count drops) as the
// channel reuse spacing grows — the physical claim behind E21.
func TestEdgeInterferenceDecaysWithReuse(t *testing.T) {
	rate := ProbeRate()
	var prevSINR float64
	var prevCount int
	for i, reuse := range []int{1, 3} {
		d, err := New(Config{
			APs: 5, Cols: 5, Tags: 60,
			InterfRangeM: 20, ReuseCells: reuse, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Probe near the boundary of cell 2's area.
		pos := geom.Point{X: 2*8 + 0.5, Y: 3}
		sinr, count, err := d.ProbeSINR(2, pos, rate)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(sinr, -1) {
			t.Fatal("probe inaudible")
		}
		if i > 0 {
			if count >= prevCount {
				t.Errorf("reuse %d: interferer count %d did not drop from %d", reuse, count, prevCount)
			}
			if sinr <= prevSINR {
				t.Errorf("reuse %d: SINR %.1f dB did not improve from %.1f dB", reuse, sinr, prevSINR)
			}
		}
		prevSINR, prevCount = sinr, count
	}
}

// TestConfigValidation covers the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{APs: 0, Tags: 4},
		{APs: 2, Tags: 0},
		{APs: 2, Tags: 300},
		{APs: 2, Tags: 4, MobileFrac: 1.5},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}
