package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mmtag/internal/obs"
)

// AdmissionConfig bounds the daemon's request path. Zero values select
// the documented defaults.
type AdmissionConfig struct {
	// MaxConcurrent is how many REST requests may execute at once
	// (default 64).
	MaxConcurrent int
	// MaxQueue is how many admitted-but-waiting requests may queue for
	// an execution slot; arrivals beyond it are shed immediately with
	// 429 (default 256).
	MaxQueue int
	// RequestTimeout caps each request end to end — queue wait plus
	// handler time; the context carrying it propagates down to the
	// snapshot reads (default 2s).
	RequestTimeout time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	return c
}

// admission is the bounded queue in front of the REST handlers: a slot
// semaphore, a queue-depth bound, and deadline-aware shedding — a
// request that would spend its whole deadline waiting is rejected now
// (429 + Retry-After) instead of timing out later, so overload degrades
// into fast, retryable refusals rather than slow failures.
type admission struct {
	cfg    AdmissionConfig
	slots  chan struct{}
	queued atomic.Int64
	// svcEWMA is an exponentially-weighted mean of recent handler
	// service times in nanoseconds; it prices the queue for the
	// wait-estimate behind deadline-aware shedding.
	svcEWMA atomic.Int64

	admitted *obs.Counter     // serve_admitted_total
	shed     *obs.CounterVec  // serve_shed_total{reason}
	depth    *obs.Gauge       // serve_queue_depth
	inflight *obs.Gauge       // serve_inflight_requests
	latency  *obs.QuantileVec // serve_request_seconds{route}
}

func newAdmission(cfg AdmissionConfig, reg *obs.Registry) *admission {
	cfg = cfg.withDefaults()
	a := &admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxConcurrent),
	}
	a.svcEWMA.Store(int64(time.Millisecond)) // optimistic prior
	if reg != nil {
		a.admitted = reg.Counter("serve_admitted_total",
			"REST requests admitted past the queue.")
		a.shed = reg.CounterVec("serve_shed_total",
			"REST requests shed by admission control, by reason.", "reason")
		a.depth = reg.Gauge("serve_queue_depth",
			"REST requests currently waiting for an execution slot.")
		a.inflight = reg.Gauge("serve_inflight_requests",
			"REST requests currently executing.")
		a.latency = reg.QuantileVec("serve_request_seconds",
			"End-to-end REST request latency (reservoir-sampled p50/p90/p99).", "route")
	}
	return a
}

// estWaitNs prices the current queue: how long a new arrival would wait
// for a slot if every queued request costs the recent mean service time.
func (a *admission) estWaitNs(queued int64) int64 {
	perSlot := a.svcEWMA.Load()
	return queued * perSlot / int64(a.cfg.MaxConcurrent)
}

// observeService folds one handler duration into the EWMA (alpha 1/8).
func (a *admission) observeService(d time.Duration) {
	for {
		old := a.svcEWMA.Load()
		upd := old + (int64(d)-old)/8
		if upd <= 0 {
			upd = 1
		}
		if a.svcEWMA.CompareAndSwap(old, upd) {
			return
		}
	}
}

// shedReply emits the 429 with a Retry-After priced off the queue.
func (a *admission) shedReply(w http.ResponseWriter, reason string) {
	a.shed.With(reason).Inc()
	retry := time.Duration(a.estWaitNs(a.queued.Load())) + a.cfg.RequestTimeout
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, fmt.Sprintf("overloaded (%s), retry after %ds", reason, secs),
		http.StatusTooManyRequests)
}

// wrap guards one REST handler with the admission queue. The handler
// runs under a context carrying the request deadline; everything it
// calls (snapshot reads, config applies) must respect that context.
func (a *admission) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		queued := a.queued.Add(1)
		a.depth.Set(float64(queued))
		dequeue := func() {
			a.depth.Set(float64(a.queued.Add(-1)))
		}
		if queued > int64(a.cfg.MaxQueue) {
			dequeue()
			a.shedReply(w, "queue_full")
			return
		}
		// Deadline-aware shedding: if the expected queue wait alone
		// exceeds the request deadline, the request is doomed — refuse
		// now so the client's retry budget is spent on a healthier
		// moment.
		if est := a.estWaitNs(queued - 1); est > int64(a.cfg.RequestTimeout) {
			dequeue()
			a.shedReply(w, "deadline")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), a.cfg.RequestTimeout)
		defer cancel()
		select {
		case a.slots <- struct{}{}:
			dequeue()
		case <-ctx.Done():
			dequeue()
			a.shedReply(w, "deadline")
			return
		}
		a.admitted.Inc()
		a.inflight.Add(1)
		start := time.Now()
		defer func() {
			<-a.slots
			a.inflight.Add(-1)
			d := time.Since(start)
			a.observeService(d)
			a.latency.With(route).Observe(d.Seconds())
		}()
		h(w, r.WithContext(ctx))
	}
}
