package net

import (
	"fmt"

	"mmtag/internal/fault"
	"mmtag/internal/geom"
	"mmtag/internal/mac"
)

// Runner drives a Deployment one association epoch at a time. Run is a
// thin loop over it; a long-running daemon (internal/serve) instead
// calls Step from its own epoch loop and publishes Snapshot after each,
// so the deployment can run indefinitely — far past cfg.Epochs — while
// staying a pure function of (seed, epoch index).
//
// A Runner is single-use and single-goroutine: construct it once per
// Deployment and call Step/Snapshot/SetFaults from one goroutine only
// (the deployment's tag state is mutated in place between epochs).
type Runner struct {
	d         *Deployment
	rep       *Report
	prevPolls []int
	epoch     int
	epochDur  float64
	// lastDisc is the most recent epoch's discovery sum — the live
	// meaning of Report.Discovered.
	lastDisc int
	// goodputSum holds raw per-cell goodput sums so Snapshot can report
	// a running mean over however many epochs have completed (Run keeps
	// the historical mean-over-cfg.Epochs arithmetic bit-for-bit).
	goodputSum []float64
	// handoffCap, when positive, bounds the retained handoff log (the
	// total count keeps accumulating in handoffs). A daemon that steps
	// forever must not grow the report without bound.
	handoffCap int
	handoffs   int
	dupPolls   int
}

// Runner returns the deployment's epoch driver. handoffCap bounds the
// retained handoff log (0 keeps every handoff — what Run wants; a
// daemon passes a small cap). The initial associations are announced to
// the trace/metrics sinks here, exactly as Run always did, so construct
// at most one Runner per Deployment.
func (d *Deployment) Runner(handoffCap int) *Runner {
	cfg := d.cfg
	rep := &Report{
		APs:    cfg.APs,
		Rows:   d.rows,
		Cols:   d.cols,
		Tags:   cfg.Tags,
		Epochs: cfg.Epochs,
		Cells:  make([]CellReport, cfg.APs),
	}
	for c := range rep.Cells {
		rep.Cells[c].AP = c
	}
	for _, t := range d.tags {
		d.emitAssoc(0, t.id, t.serving, d.snrDB(t.serving, t.pos))
	}
	return &Runner{
		d:          d,
		rep:        rep,
		prevPolls:  make([]int, cfg.APs),
		epochDur:   cfg.Duration / float64(cfg.Epochs),
		goodputSum: make([]float64, cfg.APs),
		handoffCap: handoffCap,
	}
}

// Epochs returns how many epochs have completed.
func (r *Runner) Epochs() int { return r.epoch }

// Step runs one association epoch: move tags and re-associate (from the
// second epoch on), then run every AP cell concurrently on the pool and
// fold the results serially in AP index order. The fold order and the
// derived RNG streams depend only on (seed, epoch index), so stepping
// is byte-reproducible at any pool width.
func (r *Runner) Step() error {
	d, cfg, e := r.d, r.d.cfg, r.epoch
	rep := r.rep
	if e > 0 {
		d.step()
		hs := d.reassociate(e, r.prevPolls)
		r.handoffs += len(hs)
		for _, h := range hs {
			r.dupPolls += h.DupPolls
			rep.DuplicatePolls += h.DupPolls
		}
		rep.Handoffs = append(rep.Handoffs, hs...)
		if r.handoffCap > 0 && len(rep.Handoffs) > r.handoffCap {
			rep.Handoffs = rep.Handoffs[len(rep.Handoffs)-r.handoffCap:]
		}
	}
	rosters := d.rosters()
	cellReps, cellWall, err := d.runEpochCells(e, r.epochDur, rosters)
	if err != nil {
		return fmt.Errorf("net: epoch %d: %w", e, err)
	}
	d.emitEpochCost(e, r.epochDur, cellWall)
	r.lastDisc = 0
	for c := 0; c < cfg.APs; c++ {
		cr := cellReps[c]
		r.prevPolls[c] = cr.PollCycles
		cell := &rep.Cells[c]
		cell.TagsServed = len(rosters[c])
		cell.Discovered = cr.Discovered
		cell.PollCycles += cr.PollCycles
		cell.FramesOK += cr.FramesOK
		cell.FramesLost += cr.FramesLost
		cell.GoodputBps += cr.GoodputBps / float64(cfg.Epochs)
		r.goodputSum[c] += cr.GoodputBps
		rep.FramesOK += cr.FramesOK
		rep.FramesLost += cr.FramesLost
		r.lastDisc += cr.Discovered
		for _, t := range rosters[c] {
			if h, ok := cr.TagHealth[t.id]; ok {
				t.suspect = h != mac.HealthActive
			}
		}
	}
	r.epoch++
	return nil
}

// Snapshot returns an immutable copy of the cumulative report as of the
// last completed Step, with live semantics: Epochs is the completed
// count, Discovered the latest epoch's discovery sum, and per-cell /
// aggregate goodput the running mean over completed epochs. The copy
// shares nothing with the Runner, so a daemon may publish it to
// concurrent readers.
func (r *Runner) Snapshot() *Report {
	rep := &Report{
		APs:            r.rep.APs,
		Rows:           r.rep.Rows,
		Cols:           r.rep.Cols,
		Tags:           r.rep.Tags,
		Epochs:         r.epoch,
		Cells:          append([]CellReport(nil), r.rep.Cells...),
		FramesOK:       r.rep.FramesOK,
		FramesLost:     r.rep.FramesLost,
		Discovered:     r.lastDisc,
		Handoffs:       append([]Handoff(nil), r.rep.Handoffs...),
		DuplicatePolls: r.rep.DuplicatePolls,
	}
	if r.epoch > 0 {
		for c := range rep.Cells {
			rep.Cells[c].GoodputBps = r.goodputSum[c] / float64(r.epoch)
			rep.AggregateGoodputBps += rep.Cells[c].GoodputBps
		}
	}
	return rep
}

// SetFaults swaps the fault plan injected into every cell from the next
// Step on. Call it only between Steps, from the Runner's goroutine —
// it is the hot-reload entry point for a live deployment, not a
// concurrent control channel. A nil plan clears all faults.
func (d *Deployment) SetFaults(p *fault.Plan) { d.cfg.Faults = p }

// Faults returns the currently armed fault plan (nil when none).
func (d *Deployment) Faults() *fault.Plan { return d.cfg.Faults }

// TagInfo is the deployment's live view of one tag, exported for the
// serving layer's /v1/tags endpoints.
type TagInfo struct {
	// ID is the tag's global identifier.
	ID uint8
	// Pos is the tag's true position in deployment coordinates.
	Pos geom.Point
	// Mobile reports whether the tag walks.
	Mobile bool
	// Serving is the AP index currently serving the tag.
	Serving int
	// Suspect is set while the serving AP's health machine has the tag
	// degraded (it will escape the cell at the next re-association).
	Suspect bool
}

// TagStates returns every tag's current state in ID order. The slice is
// a copy; call it from the Runner's goroutine (tag state mutates during
// Step).
func (d *Deployment) TagStates() []TagInfo {
	out := make([]TagInfo, 0, len(d.tags))
	for _, t := range d.tags {
		out = append(out, TagInfo{
			ID:      t.id,
			Pos:     t.pos,
			Mobile:  t.mobile,
			Serving: t.serving,
			Suspect: t.suspect,
		})
	}
	return out
}
