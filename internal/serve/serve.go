// Package serve is the continuous-inventory daemon: it hosts a live
// multi-AP deployment (internal/net) whose epoch loop runs in a
// background goroutine and publishes an immutable Snapshot through an
// atomic pointer after every epoch, and layers a hardened request path
// on top of the internal/obs/serve observability server — REST
// endpoints for tag state and deployment reports backed by single-flight
// snapshot rendering, a bounded admission queue with deadline-aware
// load-shedding (429 + Retry-After), per-request timeouts propagated
// down to the snapshot reads, hot-reload of the fault plan via POST
// /config with validate-then-swap and automatic rollback on a failed
// apply, and graceful drain on SIGTERM (refuse new work, finish
// in-flight requests under a drain deadline, then force-close).
//
// DESIGN.md: section 10 (continuous-inventory service); cmd/mmtag-serve
// is the CLI shell and cmd/mmtag-load the closed-loop client.
package serve

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mmtag/internal/fault"
	"mmtag/internal/net"
	"mmtag/internal/obs"
	obsserve "mmtag/internal/obs/serve"
	"mmtag/internal/par"
	"mmtag/internal/trace"
)

// Config parameterizes a Daemon.
type Config struct {
	// Addr is the listen address (host:port; ":0" picks a free port).
	Addr string
	// Net configures the hosted deployment. Pool, Trace, Obs and
	// CostSpans are owned by the daemon and must be left unset.
	Net net.Config
	// Shard, when Count > 0, runs the daemon as one shard of a
	// horizontally partitioned fleet: Net is then read as the FLEET
	// configuration, and Start slices it down to shard Index's AP group
	// and global tag-ID range via net.PartitionDeployment — so every
	// shard of a fleet is launched from the same flags plus its own
	// index. Only Index and Count are read; the ranges are re-derived,
	// which is what makes the shard map deterministic across machines.
	// The resolved identity is reported by /v1/status for the router.
	Shard net.ShardSpec
	// Workers sizes the cell pool (default: GOMAXPROCS via par).
	Workers int
	// EpochInterval is the minimum wall-clock spacing between epoch
	// starts (default 250ms). An epoch that simulates slower than the
	// interval just runs back to back.
	EpochInterval time.Duration
	// DrainTimeout bounds graceful drain: in-flight requests get this
	// long to finish after SIGTERM before the listener is force-closed
	// (default 10s).
	DrainTimeout time.Duration
	// HandoffLog bounds the handoff log retained in snapshots
	// (default 256).
	HandoffLog int
	// RunID labels the run (default derived from the deployment).
	RunID string
	// Registry receives every instrument; a fresh one is created when
	// nil.
	Registry *obs.Registry
	// Admission bounds the REST request path.
	Admission AdmissionConfig

	// stepWrap, when set (tests), wraps the epoch step function — the
	// hook that lets the rollback path be exercised deterministically.
	stepWrap func(step func() error) func() error
	// testMount, when set (tests), registers extra routes after the
	// daemon's own.
	testMount func(mux *http.ServeMux)
}

func (c Config) withDefaults() Config {
	if c.EpochInterval <= 0 {
		c.EpochInterval = 250 * time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.HandoffLog <= 0 {
		c.HandoffLog = 256
	}
	return c
}

// Daemon is a running continuous-inventory service. Its embedded Gate
// is the drain state machine in front of the REST surface.
type Daemon struct {
	obsserve.Gate

	cfg    Config
	reg    *obs.Registry
	dep    *net.Deployment
	runner *net.Runner
	step   func() error
	pool   *par.Pool
	rec    *trace.Recorder
	obsSrv *obsserve.Server

	admit    *admission
	requests *obs.CounterVec // serve_requests_total{route,code}
	snap     atomic.Pointer[Snapshot]

	// sharded marks a fleet member; shard is its resolved slice.
	sharded bool
	shard   net.ShardSpec

	started    time.Time
	generation atomic.Int64
	faultSpec  string // epoch-loop goroutine only
	cfgCh      chan *cfgChange
	stopLoop   chan struct{}
	loopDone   chan struct{}
	stopOnce   sync.Once

	epochs      *obs.Counter  // serve_epochs_total
	epochErrors *obs.Counter  // serve_epoch_errors_total
	epochWall   *obs.Quantile // serve_daemon_epoch_seconds
	epochGauge  *obs.Gauge    // serve_epoch
	applied     *obs.Counter  // serve_config_applied_total
	rejected    *obs.Counter  // serve_config_rejected_total
	rollbacks   *obs.Counter  // serve_config_rollbacks_total
	genGauge    *obs.Gauge    // serve_config_generation
	drainForced *obs.Counter  // serve_drain_forced_total
}

// Start builds the deployment, publishes the epoch-0 snapshot, mounts
// the REST surface on the observability server and launches the epoch
// loop.
func Start(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	runID := cfg.RunID
	if runID == "" {
		runID = fmt.Sprintf("serve-aps%d-tags%d-seed%d", cfg.Net.APs, cfg.Net.Tags, cfg.Net.Seed)
	}
	var shard net.ShardSpec
	sharded := cfg.Shard.Count > 0
	if sharded {
		if cfg.Shard.Index < 0 || cfg.Shard.Index >= cfg.Shard.Count {
			return nil, fmt.Errorf("serve: shard index %d outside fleet of %d", cfg.Shard.Index, cfg.Shard.Count)
		}
		specs, err := net.PartitionDeployment(cfg.Net.APs, cfg.Net.Tags, cfg.Shard.Count)
		if err != nil {
			return nil, fmt.Errorf("serve: shard mode: %w", err)
		}
		shard = specs[cfg.Shard.Index]
		cfg.Net = shard.Slice(cfg.Net)
		if cfg.RunID == "" {
			runID = fmt.Sprintf("%s-shard%d.%d", runID, shard.Index, shard.Count)
		}
	}
	d := &Daemon{
		cfg:      cfg,
		reg:      reg,
		sharded:  sharded,
		shard:    shard,
		started:  time.Now(),
		cfgCh:    make(chan *cfgChange, 1),
		stopLoop: make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	d.admit = newAdmission(cfg.Admission, reg)
	d.requests = reg.CounterVec("serve_requests_total",
		"REST requests served, by route and status code.", "route", "code")
	d.epochs = reg.Counter("serve_epochs_total", "Association epochs completed by the live deployment.")
	d.epochErrors = reg.Counter("serve_epoch_errors_total", "Epoch runs that failed (excluding rolled-back config trials).")
	d.epochWall = reg.Quantile("serve_daemon_epoch_seconds", "Wall-clock cost of one daemon epoch (step + snapshot).")
	d.epochGauge = reg.Gauge("serve_epoch", "Current epoch of the live deployment.")
	d.applied = reg.Counter("serve_config_applied_total", "Hot-reload config changes applied.")
	d.rejected = reg.Counter("serve_config_rejected_total", "Hot-reload config changes rejected by validation.")
	d.rollbacks = reg.Counter("serve_config_rollbacks_total", "Hot-reload config changes rolled back after a failed apply.")
	d.genGauge = reg.Gauge("serve_config_generation", "Current config generation.")
	d.drainForced = reg.Counter("serve_drain_forced_total", "Drains that hit the deadline and force-closed in-flight requests.")

	d.pool = par.New(par.Config{Workers: cfg.Workers, Registry: reg})
	d.rec = trace.NewRecorder(65536)
	d.rec.SetRun(runID)

	netCfg := cfg.Net
	netCfg.Pool = d.pool
	netCfg.Trace = d.rec
	netCfg.Obs = obs.NewHandle(reg, nil)
	dep, err := net.New(netCfg)
	if err != nil {
		d.pool.Close()
		return nil, err
	}
	d.dep = dep
	if p := netCfg.Faults; p != nil {
		d.faultSpec = p.String()
	}

	srv, err := obsserve.Start(obsserve.Config{Addr: cfg.Addr, Registry: reg, RunID: runID, Mount: d.mount})
	if err != nil {
		d.pool.Close()
		return nil, err
	}
	d.obsSrv = srv
	d.rec.Tee(srv.Publish)

	// The Runner announces initial associations into the trace, so it
	// must be built after the SSE tee is armed.
	d.runner = dep.Runner(cfg.HandoffLog)
	d.step = d.runner.Step
	if cfg.stepWrap != nil {
		d.step = cfg.stepWrap(d.step)
	}
	d.publishSnapshot()

	go d.loop()
	return d, nil
}

// URL is the base URL of the resolved listen address.
func (d *Daemon) URL() string { return d.obsSrv.URL() }

// Registry returns the daemon's metrics registry (the final flush reads
// it after drain).
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// loop is the epoch loop: apply at most one staged config change, step
// the deployment, publish the snapshot, pace to EpochInterval.
func (d *Daemon) loop() {
	defer close(d.loopDone)
	for {
		select {
		case <-d.stopLoop:
			return
		default:
		}
		start := time.Now()
		var pending *cfgChange
		select {
		case pending = <-d.cfgCh:
		default:
		}
		var oldPlan *fault.Plan
		var oldSpec string
		if pending != nil {
			oldPlan, oldSpec = d.dep.Faults(), d.faultSpec
			d.dep.SetFaults(pending.plan)
			d.faultSpec = pending.spec
		}
		err := d.step()
		if err != nil && pending != nil {
			// The new config failed its trial epoch: roll back to the
			// last good plan and re-run so the deployment keeps
			// serving under the old config.
			d.dep.SetFaults(oldPlan)
			d.faultSpec = oldSpec
			d.rollbacks.Inc()
			pending.result <- fmt.Errorf("apply failed, rolled back: %w", err)
			pending = nil
			err = d.step()
		}
		if err != nil {
			d.epochErrors.Inc()
			select {
			case <-d.stopLoop:
				return
			case <-time.After(d.cfg.EpochInterval):
			}
			continue
		}
		if pending != nil {
			d.generation.Add(1)
			d.applied.Inc()
		}
		d.epochs.Inc()
		d.publishSnapshot()
		if pending != nil {
			// Acknowledge only once the snapshot carries the new
			// generation, so a client that reads back after the 200
			// sees its own write.
			pending.result <- nil
		}
		d.epochWall.Observe(time.Since(start).Seconds())
		if wait := d.cfg.EpochInterval - time.Since(start); wait > 0 {
			select {
			case <-d.stopLoop:
				return
			case <-time.After(wait):
			}
		}
	}
}

// publishSnapshot swaps in the current epoch's immutable view.
func (d *Daemon) publishSnapshot() {
	snap := &Snapshot{
		Epoch:      d.runner.Epochs(),
		Generation: d.generation.Load(),
		FaultSpec:  d.faultSpec,
		TakenAt:    time.Now(),
		Report:     d.runner.Snapshot(),
		Tags:       d.dep.TagStates(),
	}
	d.snap.Store(snap)
	d.epochGauge.Set(float64(snap.Epoch))
	d.genGauge.Set(float64(snap.Generation))
}

// Snapshot returns the latest published view (never nil after Start).
func (d *Daemon) Snapshot() *Snapshot { return d.snap.Load() }

// guard wraps a REST handler with the drain gate and the admission
// queue; the gate counts every outcome in serve_requests_total.
func (d *Daemon) guard(route string, h http.HandlerFunc) http.HandlerFunc {
	return d.Guard(route, d.requests, d.admit.wrap(route, h))
}

// WaitSignal blocks until SIGINT/SIGTERM, then drains gracefully.
// Returns true when the drain finished before the deadline.
func (d *Daemon) WaitSignal() bool {
	d.obsSrv.AwaitSignal()
	return d.Drain()
}

// Drain executes the shutdown state machine: refuse new REST requests
// (503), wait for in-flight requests up to DrainTimeout, then stop.
// Returns true when no in-flight request had to be cut off; later calls
// wait for the first to finish and report true.
func (d *Daemon) Drain() bool {
	clean := d.Gate.Drain(d.cfg.DrainTimeout)
	if !clean {
		d.drainForced.Inc()
	}
	d.stop()
	return clean
}

// Close force-stops the daemon without the graceful wait (tests).
func (d *Daemon) Close() {
	d.Gate.Drain(0)
	d.stop()
}

// stop runs once after the gate has drained: stop the epoch loop, fail
// a config change staged after the loop exited (its poster would
// otherwise hang), publish a final snapshot and close the listener
// (force-closing anything still stalled) and the pool.
func (d *Daemon) stop() {
	d.stopOnce.Do(func() {
		close(d.stopLoop)
		<-d.loopDone
		select {
		case pending := <-d.cfgCh:
			pending.result <- fmt.Errorf("serve: draining")
		default:
		}
		d.publishSnapshot()
		d.obsSrv.Close()
		d.pool.Close()
		d.Gate.Close()
	})
}
