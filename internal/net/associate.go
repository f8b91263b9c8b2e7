package net

import (
	"fmt"
	"math"

	"mmtag/internal/geom"
	"mmtag/internal/par"
	"mmtag/internal/rfmath"
	"mmtag/internal/trace"
)

// step advances every mobile tag by one epoch period, reflecting off
// the deployment boundary (with a small south margin so no tag walks
// into an AP).
func (d *Deployment) step() {
	w, h := d.Width(), d.Height()
	for _, t := range d.tags {
		if !t.mobile {
			continue
		}
		t.pos.X += t.vel.X * epochPeriodS
		t.pos.Y += t.vel.Y * epochPeriodS
		t.pos.X, t.vel.X = reflect1D(t.pos.X, t.vel.X, 0, w)
		t.pos.Y, t.vel.Y = reflect1D(t.pos.Y, t.vel.Y, 0.5, h)
	}
}

// reflect1D bounces x into [lo, hi], flipping v when a wall is hit.
func reflect1D(x, v, lo, hi float64) (float64, float64) {
	for {
		switch {
		case x < lo:
			x, v = 2*lo-x, -v
		case x > hi:
			x, v = 2*hi-x, -v
		default:
			return x, v
		}
	}
}

// Handoff is one completed inter-AP handoff.
type Handoff struct {
	// Epoch is the association epoch at which the handoff occurred.
	Epoch int
	// T is the deployment wall-clock time of the handoff (epoch *
	// the 1 s epoch period).
	T float64
	// Tag is the tag that moved.
	Tag uint8
	// From and To are the source and target AP indices.
	From, To int
	// LatencyS is the handoff latency (base + jittered component).
	LatencyS float64
	// Reason is "snr" (hysteresis crossing), "coverage" (the tag walked
	// out of the serving AP's discovery sector) or "health" (the serving
	// AP's health machine had marked the tag suspect or lost).
	Reason string
	// DupPolls estimates the polls the source AP wasted on the tag
	// during the stale-roster window (latency as a fraction of the
	// epoch period, scaled by the source cell's poll rate).
	DupPolls int
}

// handoffStream derives the per-(epoch, tag) jitter stream coordinate.
func handoffStream(epoch int, id uint8) uint64 {
	return streamTagBase + uint64(epoch)*256 + uint64(id)
}

// reassociate re-evaluates every tag's serving AP at an epoch boundary
// and returns the resulting handoffs in tag order. The grid's best
// covering AP takes the tag when it clears the serving AP's estimate by
// the hysteresis margin, or by any amount when the tag walked out of
// the serving sector or the serving AP's health machine degraded it
// last epoch. A tag no sector covers stays put. prevPolls is the
// per-cell poll-cycle count of the previous epoch, used for the
// duplicate-poll estimate.
func (d *Deployment) reassociate(epoch int, prevPolls []int) []Handoff {
	var out []Handoff
	now := float64(epoch) * epochPeriodS
	for _, t := range d.tags {
		best, snr := d.assign(t.pos.X, t.pos.Y)
		if best == t.serving || !d.coversAt(best, t.pos.X, t.pos.Y) {
			continue
		}
		bestSNR := rfmath.DB(snr)
		servingSNR := math.Inf(-1)
		margin := hysteresisDB
		reason := "snr"
		if d.coversAt(t.serving, t.pos.X, t.pos.Y) {
			servingSNR = d.snrDB(t.serving, t.pos)
		} else {
			margin = 0
			reason = "coverage"
		}
		if t.suspect {
			margin = 0
			reason = "health"
		}
		if bestSNR <= servingSNR+margin {
			continue
		}
		u := par.Rand(d.cfg.Seed, handoffStream(epoch, t.id)).Float64()
		latency := handoffBaseS + u*handoffJitterS
		dup := 0
		if t.serving < len(prevPolls) {
			dup = int(math.Ceil(float64(prevPolls[t.serving]) * latency / epochPeriodS))
		}
		h := Handoff{
			Epoch:    epoch,
			T:        now,
			Tag:      t.id,
			From:     t.serving,
			To:       best,
			LatencyS: latency,
			Reason:   reason,
			DupPolls: dup,
		}
		out = append(out, h)
		t.serving = best
		t.suspect = false
		d.emitHandoff(h, bestSNR)
	}
	return out
}

// snrDB is the association SNR estimate from AP a to p, in dB.
func (d *Deployment) snrDB(a int, p geom.Point) float64 { return rfmath.DB(d.snrAt(a, p.X, p.Y)) }

// emitHandoff records one handoff into the trace and metrics sinks.
// Called only from the serial epoch loop, so event order is seed-stable.
func (d *Deployment) emitHandoff(h Handoff, snrDB float64) {
	if tr := d.cfg.Trace; tr != nil {
		tr.Emit(trace.Event{
			T:    h.T,
			Kind: trace.KindHandoff,
			Tag:  h.Tag,
			Detail: fmt.Sprintf("ap%d->ap%d %s latency=%.2fms dup=%d",
				h.From, h.To, h.Reason, h.LatencyS*1e3, h.DupPolls),
			OK: true,
		})
	}
	d.emitAssoc(h.T, h.Tag, h.To, snrDB)
	if d.m != nil {
		d.m.handoffs.With(h.Reason).Inc()
		d.m.latency.Observe(h.LatencyS)
		d.m.dupPolls.Add(float64(h.DupPolls))
	}
}

// emitAssoc records a (re)association into the trace and metrics sinks.
func (d *Deployment) emitAssoc(t float64, id uint8, a int, snrDB float64) {
	if tr := d.cfg.Trace; tr != nil {
		tr.Emit(trace.Event{
			T:      t,
			Kind:   trace.KindAssoc,
			Tag:    id,
			Detail: fmt.Sprintf("ap%d snr=%.1fdB", a, snrDB),
			OK:     true,
		})
	}
	if d.m != nil {
		d.m.assoc.With(apLabel(a)).Observe(snrDB)
	}
}

// apLabel formats an AP index as a metric label value.
func apLabel(a int) string { return fmt.Sprintf("%d", a) }
