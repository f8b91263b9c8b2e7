package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mmtag/internal/obs"
)

// requestCounts maps the code label of every requests{route,code}
// child to its value.
func requestCounts(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, f := range reg.Snapshot().Families {
		if f.Name != "requests_total" {
			continue
		}
		for _, m := range f.Metrics {
			out[m.LabelValues[1]] += m.Value
		}
	}
	return out
}

// TestGateDrainStorm races a storm of guarded requests against Drain:
// every response is a 200 or a 503 with Connection: close, no handler
// body starts once Drain has returned, and the {route,code} counts sum
// to the requests sent.
func TestGateDrainStorm(t *testing.T) {
	const workers = 8
	reg := obs.NewRegistry()
	requests := reg.CounterVec("requests_total", "Guarded requests.", "route", "code")
	var g Gate
	var drained atomic.Bool
	h := g.Guard("storm", requests, func(w http.ResponseWriter, r *http.Request) {
		if drained.Load() {
			t.Error("handler body started after Drain returned")
		}
		time.Sleep(50 * time.Microsecond) // hold the request in flight
	})

	var sent, ok, refused atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rr := httptest.NewRecorder()
				h(rr, httptest.NewRequest(http.MethodGet, "/storm", nil))
				sent.Add(1)
				switch rr.Code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					refused.Add(1)
					if rr.Header().Get("Connection") != "close" {
						t.Error("503 refusal without Connection: close")
					}
				default:
					t.Errorf("guarded request = %d, want 200 or 503", rr.Code)
				}
			}
		}()
	}
	// waitFor polls an event the storm's goroutines count.
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("storm never %s", what)
				return
			}
		}
	}
	waitFor("served 100 requests", func() bool { return ok.Load() >= 100 })
	if !g.Drain(5 * time.Second) {
		t.Error("drain of short handlers reported forced")
	}
	drained.Store(true)
	if got := g.Inflight(); got != 0 {
		t.Errorf("in-flight after a clean drain = %d, want 0", got)
	}
	waitFor("saw a 503 refusal", func() bool { return refused.Load() > 0 })
	close(stop)
	wg.Wait()

	counts := requestCounts(reg)
	total := 0.0
	for _, v := range counts {
		total += v
	}
	if n := float64(sent.Load()); total != n {
		t.Errorf("requests{route,code} sum to %g, want the %g requests sent (%v)", total, n, counts)
	}
}

// TestGateDrainDeadline pins the deadline: a handler that never
// finishes makes Drain report forced in bounded time, and a later Drain
// is a no-op that reports true.
func TestGateDrainDeadline(t *testing.T) {
	var g Gate
	if got := g.State(); got != "serving" {
		t.Fatalf("zero gate state = %q, want serving", got)
	}
	release := make(chan struct{})
	entered := make(chan struct{})
	h := g.Guard("stall", nil, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/stall", nil))
	}()
	<-entered

	start := time.Now()
	if g.Drain(150 * time.Millisecond) {
		t.Fatal("drain of a stalled handler reported clean, want forced")
	}
	if waited := time.Since(start); waited < 150*time.Millisecond || waited > 5*time.Second {
		t.Errorf("forced drain took %v, want >= 150ms and bounded", waited)
	}
	if got := g.State(); got != "draining" {
		t.Errorf("state after drain = %q, want draining", got)
	}
	if !g.Drain(time.Second) {
		t.Error("second Drain = false, want true no-op")
	}
	g.Close()
	if got := g.State(); got != "closed" {
		t.Errorf("state after Close = %q, want closed", got)
	}
	close(release)
	<-done
	if got := g.Inflight(); got != 0 {
		t.Errorf("in-flight after the stalled handler left = %d, want 0", got)
	}
}

// TestFlushMetrics pins the final flush's output lines: a file flush
// announces its path, a stdout flush is headed "final metrics:", and
// an empty path writes nothing.
func TestFlushMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("demo_total", "help.").Inc()

	var out bytes.Buffer
	if err := FlushMetrics(reg, "", &out); err != nil || out.Len() != 0 {
		t.Fatalf("empty path: err=%v out=%q", err, out.String())
	}
	if err := FlushMetrics(reg, "-", &out); err != nil {
		t.Fatal(err)
	}
	want := bytes.NewBufferString("\nfinal metrics:\n")
	reg.WritePrometheus(want) //nolint:errcheck // bytes.Buffer
	if got := out.String(); got != want.String() {
		t.Errorf("stdout flush = %q, want %q", got, want.String())
	}

	path := filepath.Join(t.TempDir(), "final.prom")
	out.Reset()
	if err := FlushMetrics(reg, path, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "wrote final metrics to "+path+"\n"; got != want {
		t.Errorf("file flush announced %q, want %q", got, want)
	}
	body, err := os.ReadFile(path)
	if err != nil || !bytes.Contains(body, []byte("demo_total 1")) {
		t.Errorf("flushed file = %q, %v", body, err)
	}
}
