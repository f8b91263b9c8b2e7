// Package router is the horizontal service tier: a thin inventory
// router that fronts N continuous-inventory shards (internal/serve
// daemons, one per AP group) and presents the fleet as one deployment.
// It scatter-gathers /v1/tags and /v1/report across every shard under
// per-shard deadlines with bounded in-flight fan-out, degrades to
// partial results (207 with shards_ok/shards_total accounting) when a
// shard is down or slow, pins /v1/tags/{id} to the owning shard through
// the deterministic AP-group→shard map (net.PartitionDeployment /
// net.OwnerShard) with a stale-snapshot fallback when that shard is
// unreachable, and drives rolling POST /config across the fleet by
// reusing each shard's validate-then-swap hot-reload ladder — validate
// locally, apply one shard at a time, roll the whole fleet back to the
// prior spec on any mid-roll failure. A background prober keeps
// per-shard health for /v1/status and the router_* metrics.
//
// DESIGN.md: section 12 (horizontal sharding and the inventory
// router); cmd/mmtag-router is the CLI shell, cmd/mmtag-serve -shard
// launches the fleet members, and cmd/mmtag-load -router drives the
// whole tier closed-loop.
package router

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mmtag/internal/net"
	"mmtag/internal/obs"
	obsserve "mmtag/internal/obs/serve"
)

// Config parameterizes a Router.
type Config struct {
	// Addr is the listen address (host:port; ":0" picks a free port).
	Addr string
	// Shards lists the fleet members' base URLs in shard-index order;
	// the position in this list IS the shard index of the deterministic
	// partition map, so it must match the -shard i/N each daemon was
	// launched with.
	Shards []string
	// APs and Tags are the FLEET deployment shape (the same -aps/-tags
	// every shard was launched with); they parameterize the
	// deterministic AP-group→shard map used to pin /v1/tags/{id}.
	APs, Tags int
	// ShardTimeout is the per-shard deadline inside a fan-out or pinned
	// request (default 1s). A shard that misses it contributes a failed
	// slot to the partial-result accounting, never a stall.
	ShardTimeout time.Duration
	// ReloadTimeout is the per-shard budget for one rolling config
	// apply, trial epoch included (default 10s).
	ReloadTimeout time.Duration
	// MaxInflight bounds concurrent upstream shard requests across all
	// client requests (default 64 × shards). A fan-out that cannot
	// reserve its slots is shed with 429, like the shard tier's
	// admission queue.
	MaxInflight int
	// ProbeInterval paces the background health prober (default 500ms).
	ProbeInterval time.Duration
	// DrainTimeout bounds graceful drain (default 10s).
	DrainTimeout time.Duration
	// RunID labels the run (default "router-shards<N>").
	RunID string
	// Registry receives every instrument; fresh when nil.
	Registry *obs.Registry
	// Client overrides the upstream HTTP client (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = time.Second
	}
	if c.ReloadTimeout <= 0 {
		c.ReloadTimeout = 10 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64 * len(c.Shards)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// shardState is the router's live view of one fleet member.
type shardState struct {
	url  string
	spec net.ShardSpec
	// up is the prober's (and the fan-out path's) latest verdict.
	up atomic.Bool
	// lastOKNano is when the shard last answered successfully.
	lastOKNano atomic.Int64
	// epoch and gen echo the shard's last observed /v1/status.
	epoch atomic.Int64
	gen   atomic.Int64
	// tags is the last good per-shard tag list — the stale-read
	// fallback behind pinned requests to a down shard.
	tags atomic.Pointer[tagsCache]
}

// Router is a running inventory-routing tier. Its embedded Gate is the
// same drain state machine the shard daemon runs.
type Router struct {
	obsserve.Gate

	cfg    Config
	reg    *obs.Registry
	obsSrv *obsserve.Server
	client *http.Client
	shards []*shardState
	// sem bounds in-flight upstream requests; a fan-out reserves one
	// slot per shard before issuing anything.
	sem chan struct{}

	started   time.Time
	reloadMu  sync.Mutex // one rolling reload at a time
	stopProbe chan struct{}
	probeDone chan struct{}
	stopOnce  sync.Once

	requests    *obs.CounterVec  // router_requests_total{route,code}
	fanout      *obs.QuantileVec // router_fanout_seconds{route}
	shardLat    *obs.QuantileVec // router_shard_seconds{shard}
	shardReqs   *obs.CounterVec  // router_shard_requests_total{shard,outcome}
	shardUp     *obs.GaugeVec    // router_shard_up{shard}
	partials    *obs.Counter     // router_partial_responses_total
	staleServed *obs.Counter     // router_stale_served_total
	shed        *obs.Counter     // router_shed_total
	reloads     *obs.Counter     // router_reloads_total
	rollbacks   *obs.Counter     // router_reload_rollbacks_total
	rejected    *obs.Counter     // router_reload_rejected_total
}

// Start validates the fleet shape, probes every shard once, mounts the
// routing surface on the observability server and launches the health
// prober.
func Start(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) < 1 {
		return nil, fmt.Errorf("router: need at least one shard URL")
	}
	specs, err := net.PartitionDeployment(cfg.APs, cfg.Tags, len(cfg.Shards))
	if err != nil {
		return nil, fmt.Errorf("router: fleet shape: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	runID := cfg.RunID
	if runID == "" {
		runID = fmt.Sprintf("router-shards%d", len(cfg.Shards))
	}
	rt := &Router{
		cfg:       cfg,
		reg:       reg,
		started:   time.Now(),
		sem:       make(chan struct{}, cfg.MaxInflight),
		stopProbe: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	rt.client = cfg.Client
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.MaxInflight,
		}}
	}
	for i, url := range cfg.Shards {
		rt.shards = append(rt.shards, &shardState{
			url:  trimSlash(url),
			spec: specs[i],
		})
	}

	rt.requests = reg.CounterVec("router_requests_total",
		"Routed requests served, by route and status code.", "route", "code")
	rt.fanout = reg.QuantileVec("router_fanout_seconds",
		"Scatter-gather wall time, by route (reservoir-sampled p50/p90/p99).", "route")
	rt.shardLat = reg.QuantileVec("router_shard_seconds",
		"Upstream shard request latency, by shard (reservoir-sampled p50/p90/p99).", "shard")
	rt.shardReqs = reg.CounterVec("router_shard_requests_total",
		"Upstream shard requests, by shard and outcome (status code or 'error').", "shard", "outcome")
	rt.shardUp = reg.GaugeVec("router_shard_up",
		"Per-shard health as seen by the router (1 = answering).", "shard")
	rt.partials = reg.Counter("router_partial_responses_total",
		"Scatter-gather responses served with at least one shard missing (207).")
	rt.staleServed = reg.Counter("router_stale_served_total",
		"Pinned tag reads served from the stale per-shard snapshot cache.")
	rt.shed = reg.Counter("router_shed_total",
		"Requests shed because the fan-out in-flight bound was exhausted (429).")
	rt.reloads = reg.Counter("router_reloads_total",
		"Rolling config reloads that applied on every shard.")
	rt.rollbacks = reg.Counter("router_reload_rollbacks_total",
		"Rolling config reloads that failed mid-roll and rolled the fleet back.")
	rt.rejected = reg.Counter("router_reload_rejected_total",
		"Config reloads rejected by router-side validation before touching any shard.")
	reg.Gauge("router_shards", "Fleet size the router fronts.").Set(float64(len(cfg.Shards)))

	srv, err := obsserve.Start(obsserve.Config{Addr: cfg.Addr, Registry: reg, RunID: runID, Mount: rt.mount})
	if err != nil {
		return nil, err
	}
	rt.obsSrv = srv

	// One synchronous probe round so /v1/status is meaningful from the
	// first request, then the background prober takes over.
	rt.probeAll()
	go rt.probeLoop()
	return rt, nil
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// URL is the base URL of the resolved listen address.
func (rt *Router) URL() string { return rt.obsSrv.URL() }

// Registry returns the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// mount registers the routing surface; /metrics, /events, /healthz and
// /debug/pprof are inherited from internal/obs/serve. The drain gate
// counts every routed outcome in router_requests_total.
func (rt *Router) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/tags", rt.Guard("tags", rt.requests, rt.handleTags))
	mux.HandleFunc("GET /v1/tags/{id}", rt.Guard("tag", rt.requests, rt.handleTag))
	mux.HandleFunc("GET /v1/report", rt.Guard("report", rt.requests, rt.handleReport))
	mux.HandleFunc("GET /v1/status", rt.handleStatus)
	mux.HandleFunc("GET /v1/config", rt.Guard("config", rt.requests, rt.handleConfigGet))
	mux.HandleFunc("POST /v1/config", rt.Guard("config", rt.requests, rt.handleConfigPost))
	// The documented hot-reload entry point, mirroring the shard tier.
	mux.HandleFunc("POST /config", rt.Guard("config", rt.requests, rt.handleConfigPost))
}

// WaitSignal blocks until SIGINT/SIGTERM, then drains gracefully.
func (rt *Router) WaitSignal() bool {
	rt.obsSrv.AwaitSignal()
	return rt.Drain()
}

// Drain refuses new requests with 503, waits for in-flight requests
// under DrainTimeout, stops the prober and closes the listener. Returns
// true when nothing had to be cut off; later calls wait for the first
// to finish and report true.
func (rt *Router) Drain() bool {
	clean := rt.Gate.Drain(rt.cfg.DrainTimeout)
	rt.stop()
	return clean
}

// Close force-stops the router without the graceful wait (tests).
func (rt *Router) Close() {
	rt.Gate.Drain(0)
	rt.stop()
}

// stop runs once after the gate has drained: stop the prober and close
// the listener.
func (rt *Router) stop() {
	rt.stopOnce.Do(func() {
		close(rt.stopProbe)
		<-rt.probeDone
		rt.obsSrv.Close()
		rt.Gate.Close()
	})
}
