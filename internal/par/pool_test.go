package par

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmtag/internal/obs"
)

// TestMapComputesAllShards checks every shard runs exactly once and
// slot-indexed results match the serial outcome, across pool sizes.
func TestMapComputesAllShards(t *testing.T) {
	const n = 100
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(Config{Workers: workers})
		got := make([]int, n)
		var calls atomic.Int64
		err := p.Map(context.Background(), n, func(i int) error {
			calls.Add(1)
			got[i] = i * i
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if calls.Load() != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, calls.Load(), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestNilPoolIsSerial checks the nil pool runs shards in index order on
// the calling goroutine.
func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	var order []int
	if err := p.Map(context.Background(), 5, func(i int) error {
		order = append(order, i) // safe: serial by contract
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
	p.Close() // must not panic
}

// TestPoolReuse runs many Map calls on one pool, sequentially and from
// concurrent goroutines, verifying isolation between jobs.
func TestPoolReuse(t *testing.T) {
	p := New(Config{Workers: 4})
	defer p.Close()
	for round := 0; round < 10; round++ {
		var sum atomic.Int64
		if err := p.Map(context.Background(), 32, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 32*31/2 {
			t.Fatalf("round %d: sum %d", round, sum.Load())
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sum atomic.Int64
			if err := p.Map(context.Background(), 16, func(i int) error {
				sum.Add(1)
				return nil
			}); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
			}
			if sum.Load() != 16 {
				t.Errorf("goroutine %d: %d shards ran", g, sum.Load())
			}
		}(g)
	}
	wg.Wait()
}

// TestNestedMapDoesNotDeadlock exercises grids inside suite shards: Map
// called from within a shard of the same pool must complete because the
// submitting goroutine helps run its own job.
func TestNestedMapDoesNotDeadlock(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	done := make(chan error, 1)
	go func() {
		var total atomic.Int64
		err := p.Map(context.Background(), 8, func(i int) error {
			return p.Map(context.Background(), 8, func(j int) error {
				total.Add(1)
				return nil
			})
		})
		if err == nil && total.Load() != 64 {
			err = fmt.Errorf("ran %d inner shards, want 64", total.Load())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

// TestCancellationMidSuite cancels while shards are in flight: Map must
// return promptly with ctx.Err(), not hang, and skip unstarted shards.
func TestCancellationMidSuite(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := p.Map(ctx, 64, func(i int) error {
		if started.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started.Load() == 64 {
		t.Fatal("cancellation skipped nothing")
	}
	// The pool must stay usable after a cancelled job.
	if err := p.Map(context.Background(), 4, func(int) error { return nil }); err != nil {
		t.Fatalf("pool unusable after cancel: %v", err)
	}
}

// TestPanicInWorkerSurfacesAsError checks a panicking shard neither
// hangs the job nor kills the pool, and that the panic is identifiable.
func TestPanicInWorkerSurfacesAsError(t *testing.T) {
	p := New(Config{Workers: 4})
	defer p.Close()
	err := p.Map(context.Background(), 16, func(i int) error {
		if i == 5 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Shard != 5 || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic error %v", pe)
	}
	// Subsequent jobs still run to completion.
	var ran atomic.Int64
	if err := p.Map(context.Background(), 8, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("pool lost workers after panic: %d/8 shards ran", ran.Load())
	}
}

// TestLowestShardErrorWins checks the deterministic error policy: with
// multiple failures the lowest-index shard's error is returned whatever
// the schedule.
func TestLowestShardErrorWins(t *testing.T) {
	p := New(Config{Workers: 8})
	defer p.Close()
	for round := 0; round < 20; round++ {
		err := p.Map(context.Background(), 32, func(i int) error {
			if i%3 == 1 { // shards 1, 4, 7, ... fail
				return fmt.Errorf("shard %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "shard 1 failed" {
			t.Fatalf("round %d: err = %v, want shard 1's", round, err)
		}
	}
}

// TestMapAfterCloseRunsSerially checks Close leaves Map functional:
// the caller covers every shard itself.
func TestMapAfterCloseRunsSerially(t *testing.T) {
	p := New(Config{Workers: 4})
	p.Close()
	p.Close() // idempotent
	var ran atomic.Int64
	if err := p.Map(context.Background(), 10, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Fatalf("%d shards ran after Close", ran.Load())
	}
}

// TestPoolMetrics checks the obs wiring: every shard lands in
// par_tasks_total with its outcome and the queue depth settles back.
func TestPoolMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := New(Config{Workers: 4, Registry: reg})
	_ = p.Map(context.Background(), 20, func(i int) error {
		switch {
		case i == 3:
			return errors.New("bad shard")
		case i == 7:
			panic("bad panic")
		}
		return nil
	})
	p.Close()
	snap := reg.Snapshot()
	values := map[string]float64{}
	var depth float64
	for _, f := range snap.Families {
		for _, m := range f.Metrics {
			switch f.Name {
			case "par_tasks_total":
				if len(m.LabelValues) == 1 {
					values[m.LabelValues[0]] = m.Value
				}
			case "par_queue_depth":
				depth = m.Value
			}
		}
	}
	if values[statusOK] != 18 || values[statusError] != 1 || values[statusPanic] != 1 {
		t.Fatalf("par_tasks_total = %v", values)
	}
	if depth != 0 {
		t.Fatalf("par_queue_depth settled at %g, want 0", depth)
	}
}

// TestMapEdgeCases covers the degenerate inputs.
func TestMapEdgeCases(t *testing.T) {
	p := New(Config{Workers: 2})
	defer p.Close()
	if err := p.Map(context.Background(), 0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := p.Map(context.Background(), -3, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Map(context.Background(), 2, nil); err == nil {
		t.Fatal("nil fn must error")
	}
	if err := p.Map(nil, 4, func(int) error { return nil }); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatal(err)
	}
}

// TestWorkerCarriesCallerLabels pins the pprof label hand-off that lets
// a CPU profile attribute pool work to its caller (mmtag-bench's
// experiment=ID): a worker running a shard carries the Map caller's
// labels, and drops them once the job is done. Two blocking shards on a
// two-goroutine pool force the worker to take one, since the caller can
// only run the other.
func TestWorkerCarriesCallerLabels(t *testing.T) {
	const label = `# labels: {"experiment":"T1"}`
	p := New(Config{Workers: 2})
	defer p.Close()
	// workerRecords returns the goroutine-profile records whose stack
	// runs through a pool worker.
	workerRecords := func() []string {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, rec := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(rec, "par.(*Pool).worker") {
				out = append(out, rec)
			}
		}
		return out
	}
	started, release := make(chan struct{}, 2), make(chan struct{})
	var labelled bool
	pprof.Do(context.Background(), pprof.Labels("experiment", "T1"), func(ctx context.Context) {
		go func() {
			<-started
			<-started
			for _, rec := range workerRecords() {
				labelled = labelled || strings.Contains(rec, label)
			}
			close(release)
		}()
		if err := p.Map(ctx, 2, func(int) error {
			started <- struct{}{}
			<-release
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if !labelled {
		t.Fatal("no pool worker running a shard carried the caller's labels")
	}
	// The worker resets its labels after its last step, which may land
	// just after Map returns; give it a moment before calling it stuck.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stuck := false
		for _, rec := range workerRecords() {
			stuck = stuck || strings.Contains(rec, label)
		}
		if !stuck {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("an idle pool worker still carries the finished job's labels")
		}
		time.Sleep(time.Millisecond)
	}
}
