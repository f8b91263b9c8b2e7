package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmtag/internal/obs"
)

// Gate states. Guarded requests are admitted only while serving;
// draining refuses new work with 503 while in-flight requests finish.
const (
	stateServing int32 = iota
	stateDraining
	stateClosed
)

// Gate is the serving → draining → closed lifecycle shared by the
// continuous-inventory daemon (internal/serve) and the inventory router
// (internal/router). It admits guarded requests while serving, keeps
// the in-flight count, and drains by refusing new work with 503 +
// Connection: close while in-flight requests finish. The zero value is
// a serving gate. Shutdown signals come from the Server's single
// registration (Server.AwaitSignal); the host runs its own stop steps
// after Drain returns and then calls Close.
type Gate struct {
	state    atomic.Int32
	inflight atomic.Int64

	once sync.Once
	// idle receives a token whenever the in-flight count reaches zero
	// while draining; drained is closed when the first Drain's wait
	// ends. Both are made before the state first leaves serving.
	idle    chan struct{}
	drained chan struct{}
}

// statusRecorder captures the handler's status code for the per-route
// counter.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Guard wraps h with the drain gate and counts every outcome exactly
// once in requests{route,code}: whatever h answers (an admission
// queue's 429 included) and the gate's own 503 refusal. The in-flight
// count is raised before the state is rechecked, so a Drain that flips
// the state in between either waits for the request or the request is
// refused; the outcome is counted before the count drops, so a registry
// flushed after Drain holds every request Drain waited for.
func (g *Gate) Guard(route string, requests *obs.CounterVec, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if g.state.Load() == stateServing {
			g.inflight.Add(1)
			defer g.leave()
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() { requests.With(route, strconv.Itoa(rec.code)).Inc() }()
		if g.state.Load() != stateServing {
			rec.Header().Set("Connection", "close")
			http.Error(rec, "draining", http.StatusServiceUnavailable)
			return
		}
		h(rec, r)
	}
}

// leave drops the in-flight count and wakes a waiting Drain when the
// gate goes idle.
func (g *Gate) leave() {
	if g.inflight.Add(-1) == 0 && g.state.Load() != stateServing {
		select {
		case g.idle <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// Drain flips the gate from serving to draining, so new guarded
// requests get 503, and waits until the in-flight count reaches zero or
// timeout passes. It reports whether in-flight work finished in time.
// Only the first call drains: later calls wait for that drain's wait to
// end and report true.
//
// The wait sleeps on a channel that the last request to leave signals,
// so it ends as soon as the gate is idle. A sync.WaitGroup cannot do
// this: Guard's Add(1) may run at count zero while Wait is blocked,
// which breaks the WaitGroup contract.
func (g *Gate) Drain(timeout time.Duration) bool {
	g.once.Do(func() {
		g.idle = make(chan struct{}, 1)
		g.drained = make(chan struct{})
	})
	if !g.state.CompareAndSwap(stateServing, stateDraining) {
		<-g.drained
		return true
	}
	defer close(g.drained)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for g.inflight.Load() > 0 {
		select {
		case <-g.idle:
		case <-timer.C:
			return false
		}
	}
	return true
}

// Close marks a drained gate closed once the host has run its stop
// steps. It does nothing to a gate that was never drained.
func (g *Gate) Close() { g.state.CompareAndSwap(stateDraining, stateClosed) }

// State names the lifecycle phase as /v1/status reports it: "serving",
// "draining" or "closed".
func (g *Gate) State() string {
	switch g.state.Load() {
	case stateDraining:
		return "draining"
	case stateClosed:
		return "closed"
	}
	return "serving"
}

// Inflight is the number of guarded requests currently admitted.
func (g *Gate) Inflight() int64 { return g.inflight.Load() }

// FlushMetrics writes the final registry snapshot in Prometheus text
// form to path ("-" = w, "" = skip) — the last step of a daemon's drain
// contract.
func FlushMetrics(reg *obs.Registry, path string, w io.Writer) error {
	if path == "" {
		return nil
	}
	var dst io.Writer = w
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	} else {
		fmt.Fprintf(w, "\nfinal metrics:\n")
	}
	if err := reg.Snapshot().WritePrometheus(dst); err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(w, "wrote final metrics to %s\n", path)
	}
	return nil
}
