// Command perfbench is the repository benchmark. It drives the public
// APIs of the mmtag packages from outside, through three workloads:
//
//   - scale-ladder: net.ScaleDeployment.Run over the default fidelity
//     ladder (tiers a, b and c; link, ap and dsp do the work);
//   - scale-budget: the same engine with every tag on the closed-form
//     budget tier (placement, association and par fan-out only);
//   - fleet-read: router.Start in front of two serve.Start shards on
//     loopback, read by an open-loop generator at a light and a heavy
//     fixed rate while the shards' epoch loops publish snapshots.
//
// Each run checks the program's outputs, counts attempted and failed
// operations, and prints one JSON object as the last line of standard
// output. With -trace 0 it reports the end-to-end metrics; with -trace 1
// a traced run records spans around every layer call, derives each
// layer's self time and reports the per-layer metrics. README.md maps
// every metric to its layer and workload.
//
// Usage (from the repository root; run.sh builds and runs this):
//
//	bash perfbench/run.sh --workload scale-ladder --seed 1 --seconds 36 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: its parameters, its output and the
// accumulating result.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	nproc    int
	out      io.Writer
	res      result
}

// op counts one attempted operation, failed when ok is false; a failure
// is reported with its reason.
func (b *bench) op(ok bool, format string, args ...any) {
	b.res.Attempted++
	if !ok {
		b.res.Failed++
		fmt.Fprintf(b.out, "FAIL: %s\n", fmt.Sprintf(format, args...))
	}
}

// metrics is every metric the benchmark reports, with its unit, as
// BENCHMARK.json lists them. The traced run reports the per-layer ones.
var metrics = []struct {
	name, unit string
	perLayer   bool
}{
	{"setup_s", "s", false},
	{"tags_per_s", "tags/s", false},
	{"peak_rss_mb", "MB", false},
	{"light_read_p50_ms", "ms", false},
	{"read_ok_frac", "fraction", false},
	{"epochs_per_s", "1/s", false},
	{"net.assign_ns_per_tag", "ns/tag", true},
	{"link.budget_ns_per_frame", "ns/frame", true},
	{"link.symbol_us_per_frame", "us/frame", true},
	{"link.waveform_us_per_frame", "us/frame", true},
	{"ap.demod_ns_per_tag_symbol", "ns/tag-symbol", true},
	{"dsp.xcorr_ns_per_lane", "ns/lane", true},
	{"par.speedup", "x", true},
	{"net.allocs_per_tag", "allocs/tag", true},
	{"link.tier_a_tags", "tags", true},
	{"link.tier_b_tags", "tags", true},
	{"link.tier_c_tags", "tags", true},
	{"router.read_p50_ms", "ms", true},
	{"router.read_p99_ms", "ms", true},
	{"router.scatter_ms_p50", "ms", true},
	{"router.pinned_ms_p50", "ms", true},
	{"router.self_ms_p50", "ms", true},
	{"router.partial_frac", "fraction", true},
	{"serve.shed_frac", "fraction", true},
	{"serve.tags_ms_p50", "ms", true},
	{"serve.tag_ms_p50", "ms", true},
	{"serve.report_ms_p50", "ms", true},
	{"serve.render_tags_us", "us", true},
	{"serve.render_report_us", "us", true},
	{"net.epoch_step_ms", "ms", true},
	{"loadgen.late_ms_p99", "ms", true},
	{"trace.overhead_frac", "fraction", true},
	{"trace.layer_sum_frac", "fraction", true},
}

// set records a metric and echoes it by name with its unit.
func (b *bench) set(name string, v float64) {
	for _, m := range metrics {
		if m.name == name {
			b.res.Metrics[name] = metric{Value: v, Unit: m.unit}
			fmt.Fprintf(b.out, "metric %-28s %14.6g %s\n", name, v, m.unit)
			return
		}
	}
	panic("perfbench: unlisted metric " + name)
}

func main() {
	b := &bench{nproc: runtime.NumCPU()}
	flag.StringVar(&b.workload, "workload", "", "workload: scale-ladder, scale-budget or fleet-read")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed: every input is derived from it")
	secs := flag.Float64("seconds", 36, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	b.seconds = time.Duration(*secs * float64(time.Second))
	b.traced = *trace == 1
	b.res.Metrics = make(map[string]metric)

	if b.workload == "fleet-read" {
		// The fleet's router, two shards and the load generator would be
		// four programs with nproc Ps each; hosted in one process they get
		// as many Ps together, so the OS interleaves the epoch loops and
		// the request path as it would across processes, instead of the
		// Go scheduler's 10 ms preemption quantum serializing them.
		runtime.GOMAXPROCS(fleetPrograms * b.nproc)
	}
	bw := bufio.NewWriter(os.Stdout)
	b.out = bw
	env, _ := json.Marshal(map[string]any{ //nolint:errcheck // plain map
		"workload": b.workload, "seed": b.seed, "seconds": *secs, "trace": *trace,
		"nproc": b.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH,
	})
	fmt.Fprintf(bw, "env %s\n", env)

	var rss *rssSampler
	if !b.traced {
		rss = sampleRSS()
	}
	var err error
	switch b.workload {
	case "scale-ladder":
		err = runScale(b, ladderSpec)
	case "scale-budget":
		err = runScale(b, budgetSpec)
	case "fleet-read":
		err = runFleet(b)
	default:
		err = fmt.Errorf("unknown workload %q (want scale-ladder, scale-budget or fleet-read)", b.workload)
	}
	if err != nil {
		bw.Flush() //nolint:errcheck // exiting on the real error
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !b.traced {
		mb, err := rss.finish()
		if err != nil {
			bw.Flush() //nolint:errcheck // exiting on the real error
			fmt.Fprintf(os.Stderr, "perfbench: resident set size: %v\n", err)
			os.Exit(1)
		}
		b.set("peak_rss_mb", mb)
	} else {
		// A layer this workload never calls did no work on it.
		for _, m := range metrics {
			if _, ok := b.res.Metrics[m.name]; m.perLayer && !ok {
				b.set(m.name, 0)
			}
		}
	}
	b.res.Correct = b.res.Failed == 0 && b.res.Attempted > 0
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(bw, "%s\n", line)
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// durMedian is median over durations, in seconds.
func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// rssEvery is how often the run samples its resident set size.
const rssEvery = 10 * time.Millisecond

// rssSampler records the process's resident set size every rssEvery
// until finish is called.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
	err        error
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			data, err := os.ReadFile("/proc/self/statm")
			if err != nil {
				s.err = err
				return
			}
			fields := strings.Fields(string(data))
			if len(fields) < 2 {
				s.err = fmt.Errorf("short /proc/self/statm %q", data)
				return
			}
			pages, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				s.err = fmt.Errorf("parse /proc/self/statm: %w", err)
				return
			}
			s.mb = append(s.mb, pages*page/(1<<20))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak resident set size, taken
// as the 99th percentile of the samples: the level the run held for at
// least 1% of its time, so a spike shorter than that (a collection that
// started late) does not set it.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	return newDist(s.mb).p(99), nil
}
