package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator: requests are due on a fixed schedule
// (request i at i/rate after the start) whatever the server does, and
// at most conns workers — one keep-alive connection each — send them in
// due order. A stalled server therefore builds a backlog instead of
// slowing the generator down, and every request is timed from when it
// was due, so the backlog's wait lands in the latency it imposes.

// sample is one request's schedule and outcome. Times are offsets from
// the schedule start.
type sample struct {
	due, sent, done time.Duration
	route           string
	// ok is a non-partial 2xx whose body passed its checks; miss marks
	// a degraded answer (207 partial or 429 shed) that is not a fault.
	ok, miss bool
	// failed marks a fault: transport error, 5xx, unexpected status, a
	// body that does not parse or breaks an invariant. why says which.
	failed bool
	why    string
	tags   int // tag records the body carried
}

// latency is the time from due to done: it includes any wait behind
// earlier requests the generator could not send on time.
func (s sample) latency() time.Duration { return s.done - s.due }

// late is how long after its due time the request was sent.
func (s sample) late() time.Duration {
	if s.sent > s.due {
		return s.sent - s.due
	}
	return 0
}

// openLoop sends n requests at rate per second over conns workers,
// request i due at start + i/rate. do performs request i and fills the
// outcome fields of its sample; the generator fills the times. Requests
// not sent within grace of the end of the schedule are abandoned and
// come back failed, so a wedged server cannot hold the run past its
// budget.
func openLoop(start time.Time, n int, rate float64, conns int, grace time.Duration, do func(worker, i int, s *sample)) []sample {
	samples := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	cutoff := time.Duration(n)*interval + grace
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &samples[i]
				s.due = time.Duration(i) * interval
				if wait := s.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s.sent = time.Since(start)
				if s.sent > cutoff {
					s.done = s.sent
					s.failed, s.why = true, "abandoned: not sent before the schedule's cutoff"
					continue
				}
				do(w, i, s)
				s.done = time.Since(start)
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// rank returns the 1-based nearest rank of percentile p among n sorted
// samples. The small tolerance keeps binary rounding of p (99.9 is not
// exact) from pushing an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailLadder is the percentiles a timing may report, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile that has at
// least minBeyond of n samples beyond it, and false when even the
// median has fewer.
func tailPercentile(n int) (float64, bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		p := tailLadder[i]
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// dist is a sorted set of timings in milliseconds.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) p(q float64) float64 { return percentile(d, q) }

// describe prints the distribution: count, p50, and every ladder
// percentile up to the reported tail, each with its sample count.
func (d dist) describe(w io.Writer, name string) {
	n := len(d)
	if n == 0 {
		fmt.Fprintf(w, "%s: no samples\n", name)
		return
	}
	tail, ok := tailPercentile(n)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: n=%d", name, n)
	for _, q := range tailLadder {
		if ok && q > tail {
			break
		}
		fmt.Fprintf(&b, " p%g=%.3fms", q, d.p(q))
		if !ok {
			break
		}
	}
	if ok {
		fmt.Fprintf(&b, " (tail p%g: %d samples beyond)", tail, n-rank(n, tail))
	} else {
		fmt.Fprintf(&b, " (fewer than %d samples beyond p50: no tail)", minBeyond)
	}
	fmt.Fprintln(w, b.String())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
