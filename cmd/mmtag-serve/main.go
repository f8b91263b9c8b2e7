// Command mmtag-serve is the hardened continuous-inventory daemon: it
// hosts a live multi-AP deployment whose association epochs advance in
// the background, and serves tag state and deployment reports over
// REST from an immutable per-epoch snapshot — alongside the standard
// observability surface (/metrics, /events, /healthz, /debug/pprof).
//
// Usage:
//
//	mmtag-serve -addr :8080 -aps 4 -tags 64 -seed 42
//	mmtag-serve -addr :8080 -faults 'blockage=30,ackloss=0.2'
//	mmtag-serve -addr :8080 -queue 128 -concurrency 32 -request-timeout 500ms
//	mmtag-serve -addr :8081 -aps 8 -tags 64 -shard 0/4
//
// With -shard i/N the flags describe the FLEET and the daemon hosts
// only its AP group: slice i of the deterministic partition
// (net.PartitionDeployment) of the fleet's APs and tags, serving global
// tag IDs. N such daemons behind cmd/mmtag-router present the fleet as
// one deployment.
//
// Endpoints:
//
//	GET  /v1/tags      every tag's state at the last epoch boundary
//	GET  /v1/tags/{id} one tag
//	GET  /v1/report    the cumulative deployment report
//	GET  /v1/status    daemon state machine (unthrottled; probes)
//	GET  /v1/config    current fault plan and config generation
//	POST /config       hot-reload the fault plan: validate-then-swap
//	                   with automatic rollback on a failed trial epoch
//
// The REST path sits behind a bounded admission queue with
// deadline-aware load-shedding: a request that would spend its whole
// deadline queueing is refused immediately with 429 and a Retry-After,
// so overload degrades into fast retryable refusals. SIGTERM/SIGINT
// triggers graceful drain — new requests get 503, in-flight requests
// finish under -drain-timeout, then the final metrics snapshot is
// flushed to -metrics. The exit code is 0 only when the drain was
// clean (no in-flight request had to be cut off). cmd/mmtag-load is
// the matching closed-loop client.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mmtag/internal/fault"
	"mmtag/internal/net"
	obsserve "mmtag/internal/obs/serve"
	"mmtag/internal/serve"
)

// options collects the CLI parameters run needs.
type options struct {
	addr           string
	aps            int
	tags           int
	seed           int64
	duration       float64
	epochs         int
	mobile         float64
	faults         string
	shard          string // "i/N" fleet slice, "" = standalone
	epochInterval  time.Duration
	drainTimeout   time.Duration
	queue          int
	concurrency    int
	requestTimeout time.Duration
	handoffLog     int
	parallel       int
	runID          string
	metrics        string // final metrics flush path ("" = off, "-" = stdout)
	out            io.Writer

	// Test hooks: ready observes the started daemon, wait replaces the
	// block-until-signal tail and returns whether the drain was clean.
	ready func(*serve.Daemon)
	wait  func(*serve.Daemon) bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	flag.IntVar(&o.aps, "aps", 4, "number of access points (>= 1)")
	flag.IntVar(&o.tags, "tags", 64, "number of tags (1..255)")
	flag.Int64Var(&o.seed, "seed", 42, "simulation seed")
	flag.Float64Var(&o.duration, "duration", 0.2, "simulated polling seconds per report window (split across -epochs)")
	flag.IntVar(&o.epochs, "epochs", 4, "association epochs per report window (each live epoch simulates duration/epochs seconds)")
	flag.Float64Var(&o.mobile, "mobile", 0.25, "fraction of tags that move and hand off between cells")
	flag.StringVar(&o.faults, "faults", "", "initial fault-injection spec, e.g. 'blockage=30,ackloss=0.2' (hot-reloadable via POST /config)")
	flag.StringVar(&o.shard, "shard", "", "host fleet slice i/N (e.g. 0/4): -aps/-tags describe the fleet, this daemon serves its AP group with global tag IDs")
	flag.DurationVar(&o.epochInterval, "epoch-interval", 250*time.Millisecond, "wall-clock spacing between association epochs")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "how long in-flight requests get to finish after SIGTERM")
	flag.IntVar(&o.queue, "queue", 256, "admission queue depth; arrivals beyond it are shed with 429")
	flag.IntVar(&o.concurrency, "concurrency", 64, "max REST requests executing at once")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 2*time.Second, "per-request deadline, queue wait included")
	flag.IntVar(&o.handoffLog, "handoff-log", 256, "handoff log entries retained in snapshots")
	flag.IntVar(&o.parallel, "parallel", runtime.GOMAXPROCS(0), "worker count for the per-cell epoch fan-out")
	flag.StringVar(&o.runID, "run-id", "", "run identity label (default: derived from the deployment)")
	flag.StringVar(&o.metrics, "metrics", "", "write the final metrics snapshot here after drain (- for stdout)")
	flag.Parse()
	o.out = os.Stdout

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "mmtag-serve: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.out == nil {
		o.out = os.Stdout
	}
	plan, err := fault.ParseSpec(o.faults)
	if err != nil {
		return err
	}
	shard, err := parseShard(o.shard)
	if err != nil {
		return err
	}
	d, err := serve.Start(serve.Config{
		Addr: o.addr,
		Net: net.Config{
			APs:        o.aps,
			Tags:       o.tags,
			Seed:       o.seed,
			Duration:   o.duration,
			Epochs:     o.epochs,
			MobileFrac: o.mobile,
			Faults:     plan,
		},
		Shard:         shard,
		Workers:       o.parallel,
		EpochInterval: o.epochInterval,
		DrainTimeout:  o.drainTimeout,
		HandoffLog:    o.handoffLog,
		RunID:         o.runID,
		Admission: serve.AdmissionConfig{
			MaxConcurrent:  o.concurrency,
			MaxQueue:       o.queue,
			RequestTimeout: o.requestTimeout,
		},
	})
	if err != nil {
		return err
	}
	if shard.Count > 0 {
		fmt.Fprintf(o.out, "mmtag-serve: shard %d/%d of %d APs, %d tags, seed %d on %s (epoch every %s)\n",
			shard.Index, shard.Count, o.aps, o.tags, o.seed, d.URL(), o.epochInterval)
	} else {
		fmt.Fprintf(o.out, "mmtag-serve: %d APs, %d tags, seed %d on %s (epoch every %s)\n",
			o.aps, o.tags, o.seed, d.URL(), o.epochInterval)
	}
	if o.faults != "" {
		fmt.Fprintf(o.out, "faults: %s\n", o.faults)
	}
	if o.ready != nil {
		o.ready(d)
	}

	clean := false
	if o.wait != nil {
		clean = o.wait(d)
	} else {
		clean = d.WaitSignal()
	}

	if err := obsserve.FlushMetrics(d.Registry(), o.metrics, o.out); err != nil {
		return err
	}
	if !clean {
		return fmt.Errorf("drain deadline hit: in-flight requests were force-closed")
	}
	fmt.Fprintln(o.out, "mmtag-serve: drained cleanly")
	return nil
}

// parseShard parses the -shard "i/N" syntax into a net.ShardSpec; the
// empty string means standalone (zero spec).
func parseShard(s string) (net.ShardSpec, error) {
	if s == "" {
		return net.ShardSpec{}, nil
	}
	idxStr, countStr, ok := strings.Cut(s, "/")
	idx, idxErr := strconv.Atoi(idxStr)
	count, countErr := strconv.Atoi(countStr)
	if !ok || idxErr != nil || countErr != nil {
		return net.ShardSpec{}, fmt.Errorf("-shard wants i/N (e.g. 0/4), got %q", s)
	}
	if count < 1 || idx < 0 || idx >= count {
		return net.ShardSpec{}, fmt.Errorf("-shard %q: index must be in 0..N-1", s)
	}
	return net.ShardSpec{Index: idx, Count: count}, nil
}
