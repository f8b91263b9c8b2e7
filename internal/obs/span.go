package obs

import (
	"sync"
	"time"

	"mmtag/internal/trace"
)

// Spans tracks hierarchical timed stages of a run, recording both the
// wall-clock cost of computing a stage and the simulated time it spans.
// Completed spans are emitted as trace.KindSpan events (start time,
// name, durations, nesting depth) and, when a registry is attached,
// observed into the stage_wall_seconds / stage_sim_seconds histogram
// families keyed by stage name.
//
// A nil *Spans is a valid "off" tracker: Start returns a nil *Span and
// End no-ops, without allocating.
type Spans struct {
	rec   *trace.Recorder
	clock func() float64 // simulated time, seconds; nil means always 0

	wall *LogHistogramVec
	sim  *LogHistogramVec

	mu    sync.Mutex
	depth int
}

// NewSpans builds a tracker that emits to rec (may be nil to keep only
// histogram output) using simClock for simulated time (may be nil). reg,
// when non-nil, additionally aggregates stage durations into histograms.
func NewSpans(rec *trace.Recorder, simClock func() float64, reg *Registry) *Spans {
	s := &Spans{rec: rec, clock: simClock}
	if reg != nil {
		s.wall = reg.LogHistogramVec("stage_wall_seconds",
			"Wall-clock cost of computing each run stage (log2 buckets).",
			"stage")
		s.sim = reg.LogHistogramVec("stage_sim_seconds",
			"Simulated time each run stage spans (log2 buckets).",
			"stage")
	}
	return s
}

// SetClock (re)binds the tracker's simulated-time source — the scenario
// runner calls this once its simulated clock exists. Nil trackers
// and nil clocks no-op.
func (s *Spans) SetClock(clock func() float64) {
	if s == nil || clock == nil {
		return
	}
	s.mu.Lock()
	s.clock = clock
	s.mu.Unlock()
}

// Span is one open stage; close it with End. Spans from one tracker are
// expected to nest (End the child before the parent), which is how the
// single-threaded simulation loop uses them.
type Span struct {
	tracker   *Spans
	name      string
	tag       uint8
	depth     int
	wallStart time.Time
	simStart  float64
}

// Start opens a span. tag is 0 when the stage is not tag-specific.
func (s *Spans) Start(name string, tag uint8) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	depth := s.depth
	s.depth++
	clock := s.clock
	s.mu.Unlock()
	sp := &Span{
		tracker:   s,
		name:      name,
		tag:       tag,
		depth:     depth,
		wallStart: time.Now(),
	}
	if clock != nil {
		sp.simStart = clock()
	}
	return sp
}

// End closes the span, emitting its event and histogram observations.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	s := sp.tracker
	wall := time.Since(sp.wallStart)
	s.mu.Lock()
	if s.depth > 0 {
		s.depth--
	}
	clock := s.clock
	s.mu.Unlock()
	simDur := 0.0
	if clock != nil {
		simDur = clock() - sp.simStart
	}
	if s.rec != nil {
		s.rec.Emit(trace.Event{
			T:      sp.simStart,
			Kind:   trace.KindSpan,
			Tag:    sp.tag,
			Span:   sp.name,
			Dur:    simDur,
			WallNs: wall.Nanoseconds(),
			Depth:  sp.depth,
		})
	}
	s.wall.With(sp.name).Observe(wall.Seconds())
	s.sim.With(sp.name).Observe(simDur)
}

// Handle bundles a metrics registry and a span tracker — the single
// value instrumented code threads through the pipeline. A nil *Handle
// disables everything at zero cost.
type Handle struct {
	reg   *Registry
	spans *Spans
}

// NewHandle builds a handle. Either part may be nil.
func NewHandle(reg *Registry, spans *Spans) *Handle {
	return &Handle{reg: reg, spans: spans}
}

// Registry returns the handle's registry (nil when off).
func (h *Handle) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Spans returns the handle's span tracker (nil when off).
func (h *Handle) Spans() *Spans {
	if h == nil {
		return nil
	}
	return h.spans
}

// StartSpan opens a span on the handle's tracker (nil span when off).
func (h *Handle) StartSpan(name string, tag uint8) *Span {
	if h == nil {
		return nil
	}
	return h.spans.Start(name, tag)
}
