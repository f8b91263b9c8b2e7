// Command mmtag-router is the horizontal service tier: an inventory
// router that fronts N mmtag-serve shards (one per AP group, launched
// with -shard i/N) and presents the fleet as one deployment.
//
// Usage:
//
//	mmtag-serve -addr :8081 -aps 8 -tags 64 -shard 0/4 &
//	mmtag-serve -addr :8082 -aps 8 -tags 64 -shard 1/4 &
//	mmtag-serve -addr :8083 -aps 8 -tags 64 -shard 2/4 &
//	mmtag-serve -addr :8084 -aps 8 -tags 64 -shard 3/4 &
//	mmtag-router -addr :8080 -aps 8 -tags 64 \
//	  -shards http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083,http://127.0.0.1:8084
//
// The -shards list is positional: entry i must be the daemon launched
// with -shard i/N, because the router derives the same deterministic
// AP-group→shard map from -aps/-tags that the daemons derived — no
// coordination protocol, just shared arithmetic.
//
// Endpoints (one deployment's worth, backed by the fleet):
//
//	GET  /v1/tags      scatter-gather merge of every shard's tag list;
//	                   degrades to 207 + shards_ok/shards_total when
//	                   shards are down or slow
//	GET  /v1/tags/{id} pinned to the owning shard; stale cached answer
//	                   (207, marked) when that shard is unreachable
//	GET  /v1/report    fleet rollup of the per-shard reports
//	GET  /v1/status    router state + per-shard health from the prober
//	GET  /v1/config    per-shard config view with a consistency verdict
//	POST /config       rolling hot-reload: validate, apply one shard at
//	                   a time, roll the fleet back on any failure
//
// SIGTERM/SIGINT drains like the shard tier: 503 for new work,
// in-flight requests finish under -drain-timeout, final metrics flush,
// exit 0 only on a clean drain. cmd/mmtag-load -router drives the tier
// closed-loop.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	obsserve "mmtag/internal/obs/serve"
	"mmtag/internal/router"
)

// options collects the CLI parameters run needs.
type options struct {
	addr          string
	shards        string
	aps           int
	tags          int
	shardTimeout  time.Duration
	reloadTimeout time.Duration
	maxInflight   int
	probeInterval time.Duration
	drainTimeout  time.Duration
	runID         string
	metrics       string
	out           io.Writer

	// Test hooks: ready observes the started router, wait replaces the
	// block-until-signal tail and returns whether the drain was clean.
	ready func(*router.Router)
	wait  func(*router.Router) bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	flag.StringVar(&o.shards, "shards", "", "comma-separated shard base URLs in shard-index order (entry i = the daemon run with -shard i/N)")
	flag.IntVar(&o.aps, "aps", 8, "FLEET access-point count (must match every shard's -aps)")
	flag.IntVar(&o.tags, "tags", 64, "FLEET tag count (must match every shard's -tags)")
	flag.DurationVar(&o.shardTimeout, "shard-timeout", time.Second, "per-shard deadline inside a fan-out or pinned request")
	flag.DurationVar(&o.reloadTimeout, "reload-timeout", 10*time.Second, "per-shard budget for one rolling config apply, trial epoch included")
	flag.IntVar(&o.maxInflight, "max-inflight", 0, "bound on concurrent upstream shard requests (0 = 64 x shards); exhaustion sheds with 429")
	flag.DurationVar(&o.probeInterval, "probe-interval", 500*time.Millisecond, "background health-probe spacing")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "how long in-flight requests get to finish after SIGTERM")
	flag.StringVar(&o.runID, "run-id", "", "run identity label (default: derived from the fleet size)")
	flag.StringVar(&o.metrics, "metrics", "", "write the final metrics snapshot here after drain (- for stdout)")
	flag.Parse()
	o.out = os.Stdout

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "mmtag-router: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.out == nil {
		o.out = os.Stdout
	}
	var urls []string
	for _, u := range strings.Split(o.shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-shards is required (comma-separated shard URLs)")
	}
	rt, err := router.Start(router.Config{
		Addr:          o.addr,
		Shards:        urls,
		APs:           o.aps,
		Tags:          o.tags,
		ShardTimeout:  o.shardTimeout,
		ReloadTimeout: o.reloadTimeout,
		MaxInflight:   o.maxInflight,
		ProbeInterval: o.probeInterval,
		DrainTimeout:  o.drainTimeout,
		RunID:         o.runID,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "mmtag-router: fronting %d shards (%d APs, %d tags) on %s\n",
		len(urls), o.aps, o.tags, rt.URL())
	if o.ready != nil {
		o.ready(rt)
	}

	clean := false
	if o.wait != nil {
		clean = o.wait(rt)
	} else {
		clean = rt.WaitSignal()
	}

	if err := obsserve.FlushMetrics(rt.Registry(), o.metrics, o.out); err != nil {
		return err
	}
	if !clean {
		return fmt.Errorf("drain deadline hit: in-flight requests were force-closed")
	}
	fmt.Fprintln(o.out, "mmtag-router: drained cleanly")
	return nil
}
