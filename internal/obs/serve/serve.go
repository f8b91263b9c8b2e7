// Package serve is the live observability server: an embeddable HTTP
// endpoint that exposes a running simulation's obs.Registry as
// Prometheus text (/metrics), streams internal/trace events as
// server-sent events (/events) through bounded fan-out buffers with
// dropped-event accounting, and mounts the runtime profiler
// (/debug/pprof/*) plus a liveness probe (/healthz). cmd/mmtag-sim and
// cmd/mmtag-bench mount it behind their -serve flag. The services built
// on it (internal/serve, internal/router) share its Gate, one
// serving/draining lifecycle, and FlushMetrics, the final flush of
// their CLIs.
//
// DESIGN.md: section 8 (live observability and cost attribution); the
// server is a read-only window onto a run — it never feeds anything
// back into the simulation.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mmtag/internal/obs"
	"mmtag/internal/trace"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address (host:port; an empty or ":0" port
	// picks a free one).
	Addr string
	// Registry backs /metrics and receives the server's own serve_*
	// instruments. Nil serves an empty exposition.
	Registry *obs.Registry
	// RunID is reported by /healthz and the run_info metric.
	RunID string
	// EventBuffer is the per-subscriber SSE buffer in events
	// (default 256). A subscriber that falls behind loses events —
	// counted, and announced in-stream when it catches up.
	EventBuffer int
	// Replay is how many recent events a new subscriber receives
	// before live ones (default 64, 0 keeps the default; negative
	// disables replay).
	Replay int
	// StallDeadline is how long a subscriber's buffer may stay full
	// (every publish dropping) before the subscriber is evicted and its
	// ring slot reclaimed (default 15s). Without it a dead client that
	// never reads holds its slot forever.
	StallDeadline time.Duration
	// ReadHeaderTimeout, WriteTimeout, IdleTimeout and MaxHeaderBytes
	// harden the listener against slow-loris clients (defaults 5s, 30s,
	// 120s, 1 MiB). The SSE stream and the pprof profilers clear their
	// per-request write deadline, so WriteTimeout only bounds the
	// request/response endpoints.
	ReadHeaderTimeout time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
	MaxHeaderBytes    int
	// Mount, when non-nil, registers extra routes on the server's mux
	// before it starts serving — the hook the inventory daemon
	// (internal/serve) and the router (internal/router) use to add
	// their REST endpoints to this observability surface.
	Mount func(mux *http.ServeMux)
}

// Server is a live observability endpoint. Start it with Start; stop
// it with Close.
type Server struct {
	cfg     Config
	ln      net.Listener
	httpSrv *http.Server
	started time.Time
	done    chan struct{}
	closed  sync.Once
	sigCh   chan os.Signal

	mu      sync.Mutex
	subs    map[int]*subscriber
	nextSub int
	ring    []trace.Event // most-recent events, oldest first

	published *obs.Counter // serve_events_published_total
	dropped   *obs.Counter // serve_events_dropped_total
	evicted   *obs.Counter // serve_sse_evicted_total
	scrapes   *obs.Counter // serve_metrics_scrapes_total
	subGauge  *obs.Gauge   // serve_sse_subscribers
}

// subscriber is one /events client: a bounded channel, the count of
// events fan-out had to drop while the channel was full, and the stall
// tracking that evicts it when the channel never drains.
type subscriber struct {
	ch      chan trace.Event
	dropped atomic.Int64
	// stalledAt is when the current run of consecutive drops began
	// (UnixNano; 0 = not stalled). A successful send resets it.
	stalledAt atomic.Int64
	// gone is closed exactly once when the broker evicts the
	// subscriber; the handler exits on it.
	gone    chan struct{}
	evicted atomic.Bool
}

// Start listens on cfg.Addr and serves in a background goroutine.
func Start(cfg Config) (*Server, error) {
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	if cfg.Replay == 0 {
		cfg.Replay = 64
	}
	if cfg.StallDeadline <= 0 {
		cfg.StallDeadline = 15 * time.Second
	}
	if cfg.ReadHeaderTimeout <= 0 {
		cfg.ReadHeaderTimeout = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 120 * time.Second
	}
	if cfg.MaxHeaderBytes <= 0 {
		cfg.MaxHeaderBytes = 1 << 20
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		started: time.Now(),
		done:    make(chan struct{}),
		subs:    make(map[int]*subscriber),
		sigCh:   make(chan os.Signal, 1),
	}
	// Register for shutdown signals immediately so a SIGINT during the
	// run is remembered (channel-buffered) instead of killing the
	// process before WaitSignal installs its handler.
	signal.Notify(s.sigCh, os.Interrupt, syscall.SIGTERM)
	if reg := cfg.Registry; reg != nil {
		s.published = reg.Counter("serve_events_published_total",
			"Trace events published to the SSE broker.")
		s.dropped = reg.Counter("serve_events_dropped_total",
			"Trace events dropped across all SSE subscribers (full buffers).")
		s.evicted = reg.Counter("serve_sse_evicted_total",
			"SSE subscribers evicted after their buffer stayed full past the stall deadline.")
		s.scrapes = reg.Counter("serve_metrics_scrapes_total",
			"Scrapes of the /metrics endpoint.")
		s.subGauge = reg.Gauge("serve_sse_subscribers",
			"Currently connected /events subscribers.")
		if cfg.RunID != "" {
			reg.GaugeVec("run_info",
				"Identity of the run this endpoint observes.", "run").
				With(cfg.RunID).Set(1)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/events", s.handleEvents)
	// The CPU/trace profilers stream for their whole sampling window, so
	// they clear the write deadline like the SSE stream does.
	mux.HandleFunc("/debug/pprof/", noWriteDeadline(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", noWriteDeadline(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", noWriteDeadline(pprof.Trace))
	if cfg.Mount != nil {
		cfg.Mount(mux)
	}
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
		MaxHeaderBytes:    cfg.MaxHeaderBytes,
	}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// noWriteDeadline exempts a streaming handler from the server-wide
// WriteTimeout by clearing the connection's write deadline for this
// response only.
func noWriteDeadline(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		http.NewResponseController(w).SetWriteDeadline(time.Time{}) //nolint:errcheck // best effort
		h(w, r)
	}
}

// Addr returns the resolved listen address (useful with a ":0" port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base HTTP URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Publish fans one trace event out to every subscriber. Slow
// subscribers lose it (accounted per subscriber and in
// serve_events_dropped_total); Publish itself never blocks, so it is
// safe on the simulation's emit path. A subscriber whose buffer stays
// full for the whole stall deadline is evicted: its ring slot is
// reclaimed immediately instead of shedding every future event into a
// dead channel forever.
func (s *Server) Publish(e trace.Event) {
	s.mu.Lock()
	if s.cfg.Replay > 0 {
		s.ring = append(s.ring, e)
		if len(s.ring) > s.cfg.Replay {
			s.ring = s.ring[len(s.ring)-s.cfg.Replay:]
		}
	}
	type target struct {
		id  int
		sub *subscriber
	}
	targets := make([]target, 0, len(s.subs))
	for id, sub := range s.subs {
		targets = append(targets, target{id, sub})
	}
	s.mu.Unlock()
	s.published.Inc()
	now := time.Now().UnixNano()
	for _, t := range targets {
		select {
		case t.sub.ch <- e:
			t.sub.stalledAt.Store(0)
		default:
			t.sub.dropped.Add(1)
			s.dropped.Inc()
			since := t.sub.stalledAt.Load()
			if since == 0 {
				t.sub.stalledAt.CompareAndSwap(0, now)
			} else if now-since >= int64(s.cfg.StallDeadline) {
				s.evict(t.id, t.sub)
			}
		}
	}
}

// evict removes a stalled subscriber from the fan-out set and releases
// its handler. Idempotent: Publish may race the handler's own exit.
func (s *Server) evict(id int, sub *subscriber) {
	if !sub.evicted.CompareAndSwap(false, true) {
		return
	}
	s.unsubscribe(id)
	s.evicted.Inc()
	close(sub.gone)
}

// Close shuts the server down: in-flight SSE streams are released and
// the listener closed. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.closed.Do(func() {
		signal.Stop(s.sigCh)
		close(s.done)
		err = s.httpSrv.Close()
	})
	return err
}

// WaitSignal blocks until SIGINT/SIGTERM (announcing the address on w),
// then closes the server — the CLI tail for a persistent -serve run.
// The signal registration happens in Start, so an interrupt delivered
// mid-run is honored here instead of killing the process.
func (s *Server) WaitSignal(w io.Writer) {
	fmt.Fprintf(w, "serving observability on %s (SIGINT to exit)\n", s.URL())
	s.AwaitSignal()
	s.Close()
}

// AwaitSignal blocks until SIGINT/SIGTERM arrives or the server is
// closed. It is the process's one signal registration, so a host that
// drains on a signal (a Gate) waits here instead of registering its own.
func (s *Server) AwaitSignal() {
	select {
	case <-s.sigCh:
	case <-s.done:
	}
}

// subscribe registers a new SSE client and returns its id, channel and
// the replay backlog.
func (s *Server) subscribe() (int, *subscriber, []trace.Event) {
	sub := &subscriber{
		ch:   make(chan trace.Event, s.cfg.EventBuffer),
		gone: make(chan struct{}),
	}
	s.mu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs[id] = sub
	replay := append([]trace.Event(nil), s.ring...)
	s.mu.Unlock()
	s.subGauge.Add(1)
	return id, sub, replay
}

// unsubscribe removes an SSE client. The gauge only moves when the id
// was still registered, so an evicted subscriber's deferred
// unsubscribe does not double-count.
func (s *Server) unsubscribe(id int) {
	s.mu.Lock()
	_, present := s.subs[id]
	delete(s.subs, id)
	s.mu.Unlock()
	if present {
		s.subGauge.Add(-1)
	}
}

// handleMetrics renders the registry in Prometheus text exposition
// format (an empty exposition when no registry is attached).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.scrapes.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.cfg.Registry == nil {
		return
	}
	s.cfg.Registry.WritePrometheus(w) //nolint:errcheck // client went away
}

// handleHealthz reports liveness, the run ID and uptime as JSON.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"status":         "ok",
		"run":            s.cfg.RunID,
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

// handleEvents streams trace events as server-sent events: the replay
// backlog first, then live events as they are published. Each event is
// one `data:` line of trace JSONL; when the subscriber's buffer
// overflowed, a `dropped` SSE event carrying the loss count precedes
// the next delivered event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// The stream outlives any sane WriteTimeout; slow consumers are
	// handled by the bounded buffer + stall eviction instead.
	http.NewResponseController(w).SetWriteDeadline(time.Time{}) //nolint:errcheck // best effort
	id, sub, replay := s.subscribe()
	defer s.unsubscribe(id)
	for _, e := range replay {
		if writeSSE(w, e) != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-sub.gone:
			// Evicted by the broker: announce and hang up.
			fmt.Fprintf(w, "event: evicted\ndata: {\"dropped\":%d}\n\n", sub.dropped.Load())
			fl.Flush()
			return
		case e := <-sub.ch:
			if d := sub.dropped.Swap(0); d > 0 {
				fmt.Fprintf(w, "event: dropped\ndata: {\"dropped\":%d}\n\n", d)
			}
			if writeSSE(w, e) != nil {
				return
			}
			fl.Flush()
		}
	}
}

// writeSSE frames one event as an SSE data record of trace JSONL.
func writeSSE(w io.Writer, e trace.Event) error {
	body, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", body)
	return err
}
