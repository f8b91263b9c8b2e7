package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"mmtag/internal/obs"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers bounds the number of pool goroutines (GOMAXPROCS when
	// <= 0). A 1-worker pool never spawns goroutines: Map runs shards
	// serially on the caller, in index order.
	Workers int
	// Registry, when non-nil, meters the pool: par_tasks_total{status}
	// counts executed shards and par_queue_depth gauges the jobs
	// advertised to workers but not yet picked up.
	Registry *obs.Registry
}

// Pool is a bounded worker pool with help-first work stealing: Map
// advertises a job to the workers and then the calling goroutine claims
// shards alongside them. Because the caller always participates, Map
// never deadlocks — even when shard functions themselves call Map on
// the same pool (nested grids), or when the pool is closed or saturated
// the caller simply runs every shard itself.
//
// A nil *Pool is valid and serial; see the package comment.
type Pool struct {
	workers int
	jobs    chan *job
	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	m       poolMetrics
}

// poolMetrics holds the pool's instruments; the zero value (nil
// instruments) no-ops.
type poolMetrics struct {
	tasks *obs.CounterVec // par_tasks_total{status}
	depth *obs.Gauge      // par_queue_depth
}

// Shard-outcome label values for par_tasks_total.
const (
	statusOK      = "ok"
	statusError   = "error"
	statusPanic   = "panic"
	statusSkipped = "skipped"
)

// New builds a pool and starts its workers.
func New(cfg Config) *Pool {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		jobs:    make(chan *job, workers),
		quit:    make(chan struct{}),
	}
	if cfg.Registry != nil {
		p.m = poolMetrics{
			tasks: cfg.Registry.CounterVec("par_tasks_total",
				"Pool shards executed, by outcome.", "status"),
			depth: cfg.Registry.Gauge("par_queue_depth",
				"Jobs advertised to pool workers and not yet picked up."),
		}
	}
	for i := 1; i < workers; i++ { // the Map caller is worker zero
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Close stops the workers and waits for them to exit. It is idempotent
// and safe on a nil pool. Map calls in flight finish normally (the
// callers run their remaining shards themselves), and Map remains
// usable after Close — it just runs serially.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
	// Retire advertisements no worker picked up (their jobs completed
	// via caller helping) so the queue-depth gauge settles to zero.
	for {
		select {
		case <-p.jobs:
			p.m.depth.Add(-1)
		default:
			return
		}
	}
}

// worker drains advertised jobs until the pool closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			p.m.depth.Add(-1)
			// Adopt the job's pprof labels (e.g. mmtag-bench's
			// experiment=ID) so CPU samples taken on this worker
			// attribute to the work, not the pool plumbing.
			if j.ctx != nil {
				pprof.SetGoroutineLabels(j.ctx)
			}
			for j.step(&p.m) {
			}
			if j.ctx != nil {
				pprof.SetGoroutineLabels(context.Background())
			}
		}
	}
}

// Map runs fn(0) .. fn(n-1) and returns after every started shard has
// finished. Shards must be independent: results are identical whatever
// the pool size, so callers writing fn(i)'s result into slot i of a
// shared slice get a deterministic, schedule-independent outcome.
//
// A shard panic is recovered and surfaces as a *PanicError; it does not
// kill the worker or hang the job. When several shards fail, the error
// of the lowest shard index wins, so the returned error is itself
// deterministic. Cancelling ctx stops unstarted shards (shards already
// running are not preempted) and Map returns ctx.Err() when no shard
// error outranks it. A nil ctx means no cancellation.
func (p *Pool) Map(ctx context.Context, n int, fn func(shard int) error) error {
	if n <= 0 {
		return nil
	}
	if fn == nil {
		return fmt.Errorf("par: nil shard function")
	}
	j := &job{ctx: ctx, n: n, fn: fn, errShard: -1, finished: make(chan struct{})}
	var m *poolMetrics
	if p != nil {
		m = &p.m
		if p.workers > 1 && n > 1 {
			// Advertise the job to at most one worker per remaining
			// shard; a full queue just means the caller (and whoever
			// frees up) covers the rest.
			adverts := min(n-1, p.workers-1)
		advertise:
			for i := 0; i < adverts; i++ {
				select {
				case p.jobs <- j:
					p.m.depth.Add(1)
				default:
					break advertise
				}
			}
		}
	}
	for j.step(m) { // help-first: the caller claims shards too
	}
	<-j.finished
	return j.result()
}

// job is one Map invocation: a claim counter over n shards plus
// completion bookkeeping shared by the caller and the workers.
type job struct {
	ctx      context.Context
	n        int
	fn       func(int) error
	next     atomic.Int64 // next unclaimed shard
	done     atomic.Int64 // completed shards
	finished chan struct{}

	mu       sync.Mutex
	errShard int // lowest shard index that failed (-1: none)
	err      error
	ctxErr   error
}

// step claims and executes one shard, reporting false once none remain.
func (j *job) step(m *poolMetrics) bool {
	i := int(j.next.Add(1)) - 1
	if i >= j.n {
		return false
	}
	status := statusOK
	if j.ctx != nil && j.ctx.Err() != nil {
		status = statusSkipped
		j.mu.Lock()
		j.ctxErr = j.ctx.Err()
		j.mu.Unlock()
	} else if err := runShard(j.fn, i); err != nil {
		status = statusError
		if _, ok := err.(*PanicError); ok {
			status = statusPanic
		}
		j.mu.Lock()
		if j.errShard < 0 || i < j.errShard {
			j.errShard, j.err = i, err
		}
		j.mu.Unlock()
	}
	if m != nil {
		m.tasks.With(status).Inc()
	}
	if j.done.Add(1) == int64(j.n) {
		close(j.finished)
	}
	return true
}

// result resolves the job's error under the deterministic policy.
func (j *job) result() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.ctxErr
}

// runShard executes one shard with panic containment.
func runShard(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Shard: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// PanicError wraps a panic recovered from a shard so a crashing trial
// surfaces to the Map caller as an error instead of tearing down the
// process or hanging the suite.
type PanicError struct {
	Shard int
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic in shard %d: %v\n%s", e.Shard, e.Value, e.Stack)
}
