package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mmtag/internal/net"
	"mmtag/internal/obs"
	obsserve "mmtag/internal/obs/serve"
)

// metric digs one counter/gauge value out of a registry snapshot,
// matching label values exactly when given.
func metric(t *testing.T, reg *obs.Registry, name string, labels ...string) float64 {
	t.Helper()
	for _, f := range reg.Snapshot().Families {
		if f.Name != name {
			continue
		}
		for _, m := range f.Metrics {
			if len(labels) == 0 || slices.Equal(m.LabelValues, labels) {
				return m.Value
			}
		}
	}
	return 0
}

func testNetConfig() net.Config {
	return net.Config{APs: 2, Tags: 8, Epochs: 2, Duration: 0.02, Seed: 42}
}

func startTestDaemon(t *testing.T, mutate func(*Config)) *Daemon {
	t.Helper()
	cfg := Config{
		Addr:          "127.0.0.1:0",
		Net:           testNetConfig(),
		Workers:       2,
		EpochInterval: 5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func httpGet(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body), resp.StatusCode
}

func postJSON(t *testing.T, url, body string) (string, int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return string(b), resp.StatusCode
}

// waitEpoch polls /v1/status until the live deployment has completed at
// least n epochs.
func waitEpoch(t *testing.T, d *Daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		body, code := httpGet(t, d.URL()+"/v1/status")
		if code != 200 {
			t.Fatalf("status = %d %q", code, body)
		}
		var st struct {
			Epoch int `json:"epoch"`
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatalf("bad status body %q: %v", body, err)
		}
		if st.Epoch >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d never reached (at %d)", n, st.Epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDaemonServesSnapshots drives the REST surface over live epochs:
// the tag and report endpoints serve from the published snapshot, which
// must keep advancing past the configured epoch count.
func TestDaemonServesSnapshots(t *testing.T) {
	d := startTestDaemon(t, nil)
	waitEpoch(t, d, 3) // past cfg.Net.Epochs=2: the daemon steps forever

	body, code := httpGet(t, d.URL()+"/v1/tags")
	if code != 200 {
		t.Fatalf("/v1/tags = %d %q", code, body)
	}
	var tags struct {
		Epoch int `json:"epoch"`
		Tags  []struct {
			ID      uint8 `json:"id"`
			Serving int   `json:"serving_ap"`
		} `json:"tags"`
	}
	if err := json.Unmarshal([]byte(body), &tags); err != nil {
		t.Fatalf("bad /v1/tags body %q: %v", body, err)
	}
	if len(tags.Tags) != 8 || tags.Epoch < 3 {
		t.Fatalf("tags = %d entries at epoch %d, want 8 entries, epoch >= 3", len(tags.Tags), tags.Epoch)
	}

	if body, code := httpGet(t, d.URL()+"/v1/tags/1"); code != 200 || !strings.Contains(body, `"id":1`) {
		t.Errorf("/v1/tags/1 = %d %q", code, body)
	}
	if body, code := httpGet(t, d.URL()+"/v1/tags/200"); code != 404 {
		t.Errorf("/v1/tags/200 = %d %q, want 404", code, body)
	}
	if body, code := httpGet(t, d.URL()+"/v1/tags/abc"); code != 400 {
		t.Errorf("/v1/tags/abc = %d %q, want 400", code, body)
	}

	body, code = httpGet(t, d.URL()+"/v1/report")
	if code != 200 || !strings.Contains(body, `"report"`) {
		t.Fatalf("/v1/report = %d %q", code, body)
	}
	var rep struct {
		Report struct {
			AggregateGoodputBps float64 `json:"AggregateGoodputBps"`
		} `json:"report"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad /v1/report body: %v", err)
	}
	if rep.Report.AggregateGoodputBps <= 0 {
		t.Errorf("report aggregate goodput = %g, want > 0", rep.Report.AggregateGoodputBps)
	}

	if body, code := httpGet(t, d.URL()+"/v1/config"); code != 200 || !strings.Contains(body, `"generation":0`) {
		t.Errorf("/v1/config = %d %q", code, body)
	}
	// The inherited observability surface must still be mounted.
	if body, code := httpGet(t, d.URL()+"/metrics"); code != 200 || !strings.Contains(body, "serve_epochs_total") {
		t.Errorf("/metrics missing daemon instruments (%d)", code)
	}
}

// TestAdmissionShedding white-boxes the bounded queue: with one slot
// and a queue of one, a parked request plus a queued request force the
// third arrival to shed queue_full, while the queued one sheds deadline
// when its timeout expires before a slot frees. Both replies are 429
// with a Retry-After.
func TestAdmissionShedding(t *testing.T) {
	reg := obs.NewRegistry()
	a := newAdmission(AdmissionConfig{
		MaxConcurrent:  1,
		MaxQueue:       1,
		RequestTimeout: 150 * time.Millisecond,
	}, reg)
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	// The gate in front of the queue counts every outcome, sheds included.
	var gate obsserve.Gate
	requests := reg.CounterVec("serve_requests_total", "REST requests served.", "route", "code")
	srv := httptest.NewServer(gate.Guard("slow", requests, a.wrap("slow", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	})))
	defer srv.Close()
	defer close(release)

	type result struct {
		code  int
		retry string
	}
	do := func() result {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Errorf("GET: %v", err)
			return result{}
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return result{resp.StatusCode, resp.Header.Get("Retry-After")}
	}

	first := make(chan result, 1)
	go func() { first <- do() }()
	<-entered // request 1 holds the only slot

	queued := make(chan result, 1)
	go func() { queued <- do() }()
	deadline := time.Now().Add(5 * time.Second)
	for a.queued.Load() != 1 { // request 2 is waiting for a slot
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Request 3 arrives over the queue bound: immediate shed.
	if r := do(); r.code != http.StatusTooManyRequests || r.retry == "" {
		t.Fatalf("over-queue request = %d Retry-After=%q, want 429 with Retry-After", r.code, r.retry)
	}
	// Request 2 burns its whole deadline waiting: deadline shed.
	if r := <-queued; r.code != http.StatusTooManyRequests || r.retry == "" {
		t.Fatalf("queued request = %d Retry-After=%q, want 429 with Retry-After", r.code, r.retry)
	}

	release <- struct{}{} // request 1 completes normally
	if r := <-first; r.code != 200 {
		t.Fatalf("parked request = %d, want 200", r.code)
	}

	if got := metric(t, reg, "serve_shed_total", "queue_full"); got != 1 {
		t.Errorf("shed{queue_full} = %g, want 1", got)
	}
	if got := metric(t, reg, "serve_shed_total", "deadline"); got != 1 {
		t.Errorf("shed{deadline} = %g, want 1", got)
	}
	if got := metric(t, reg, "serve_admitted_total"); got != 1 {
		t.Errorf("admitted = %g, want 1", got)
	}
	if got := metric(t, reg, "serve_requests_total", "slow", "429"); got != 2 {
		t.Errorf("requests{slow,429} = %g, want 2", got)
	}
	if got := metric(t, reg, "serve_requests_total", "slow", "200"); got != 1 {
		t.Errorf("requests{slow,200} = %g, want 1", got)
	}
}

// TestConfigHotReload exercises the full validate-then-swap ladder:
// valid spec applied (200, generation bump), invalid spec rejected with
// the old config still serving (400), a spec whose trial epoch fails
// rolled back automatically (422), and a second change while one is
// staged refused (409).
func TestConfigHotReload(t *testing.T) {
	var hold atomic.Bool
	var dptr atomic.Pointer[Daemon]
	var failSpec atomic.Value // spec whose trial epoch must fail, once
	failSpec.Store("")
	stepEntered := make(chan struct{}, 1)
	releaseStep := make(chan struct{})
	d := startTestDaemon(t, func(cfg *Config) {
		cfg.stepWrap = func(step func() error) func() error {
			return func() error {
				if hold.Load() {
					select {
					case stepEntered <- struct{}{}:
					default:
					}
					<-releaseStep
				}
				// Fail exactly the epoch that trials the poisoned spec
				// (faultSpec is loop-goroutine state, and this wrapper
				// runs on the loop goroutine).
				if fs := failSpec.Load().(string); fs != "" {
					if dm := dptr.Load(); dm != nil && dm.faultSpec == fs {
						failSpec.Store("")
						return errors.New("trial epoch boom")
					}
				}
				return step()
			}
		}
	})
	dptr.Store(d)
	reg := d.Registry()
	waitEpoch(t, d, 1)

	// Valid change: applied, generation bumps, visible in /v1/config.
	body, code := postJSON(t, d.URL()+"/config", `{"faults":"snr=3"}`)
	if code != 200 || !strings.Contains(body, `"applied":true`) {
		t.Fatalf("valid POST /config = %d %q", code, body)
	}
	if body, code := httpGet(t, d.URL()+"/v1/config"); code != 200 ||
		!strings.Contains(body, "snr=3") || !strings.Contains(body, `"generation":1`) {
		t.Fatalf("config after apply = %d %q", code, body)
	}
	if got := metric(t, reg, "serve_config_applied_total"); got != 1 {
		t.Errorf("applied = %g, want 1", got)
	}

	// Invalid change: rejected at validation, old generation keeps
	// serving and the endpoints stay healthy.
	body, code = postJSON(t, d.URL()+"/config", `{"faults":"bogus=1"}`)
	if code != 400 || !strings.Contains(body, "still serving previous generation") {
		t.Fatalf("invalid POST /config = %d %q", code, body)
	}
	if body, code := httpGet(t, d.URL()+"/v1/config"); code != 200 ||
		!strings.Contains(body, "snr=3") || !strings.Contains(body, `"generation":1`) {
		t.Fatalf("config after rejected POST = %d %q", code, body)
	}
	if _, code := httpGet(t, d.URL()+"/v1/tags"); code != 200 {
		t.Fatalf("/v1/tags after rejected POST = %d, want 200", code)
	}
	if got := metric(t, reg, "serve_config_rejected_total"); got != 1 {
		t.Errorf("rejected = %g, want 1", got)
	}

	// Valid spec whose trial epoch fails: automatic rollback, 422, old
	// plan restored.
	failSpec.Store("ackloss=0.5")
	body, code = postJSON(t, d.URL()+"/config", `{"faults":"ackloss=0.5"}`)
	if code != 422 || !strings.Contains(body, "rolled back") {
		t.Fatalf("rollback POST /config = %d %q", code, body)
	}
	if body, code := httpGet(t, d.URL()+"/v1/config"); code != 200 ||
		!strings.Contains(body, "snr=3") || !strings.Contains(body, `"generation":1`) {
		t.Fatalf("config after rollback = %d %q", code, body)
	}
	if got := metric(t, reg, "serve_config_rollbacks_total"); got != 1 {
		t.Errorf("rollbacks = %g, want 1", got)
	}
	waitEpoch(t, d, d.Snapshot().Epoch+1) // still stepping after rollback

	// Concurrent change: park the loop inside a step so a staged change
	// cannot be consumed, then a second POST must get 409.
	hold.Store(true)
	<-stepEntered
	d.cfgCh <- &cfgChange{result: make(chan error, 1)}
	body, code = postJSON(t, d.URL()+"/config", `{"faults":""}`)
	if code != 409 {
		t.Fatalf("concurrent POST /config = %d %q, want 409", code, body)
	}
	hold.Store(false)
	close(releaseStep)
}

// drainConfig mounts /test/slow behind the daemon's guard so drain can
// be observed against a handler the test controls.
func startDrainDaemon(t *testing.T, drainTimeout time.Duration) (*Daemon, chan struct{}, chan struct{}) {
	t.Helper()
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	var d *Daemon
	d = startTestDaemon(t, func(cfg *Config) {
		cfg.DrainTimeout = drainTimeout
		cfg.Admission.RequestTimeout = 30 * time.Second
		cfg.testMount = func(mux *http.ServeMux) {
			mux.HandleFunc("GET /test/slow", func(w http.ResponseWriter, r *http.Request) {
				d.guard("slow", func(w http.ResponseWriter, r *http.Request) {
					entered <- struct{}{}
					<-block
					fmt.Fprint(w, "slow-done") //nolint:errcheck
				})(w, r)
			})
		}
	})
	return d, block, entered
}

// TestDrainGraceful pins the drain contract: an in-flight request
// finishes with 200 while new requests get 503, and the drain reports
// clean.
func TestDrainGraceful(t *testing.T) {
	d, block, entered := startDrainDaemon(t, 10*time.Second)

	slow := make(chan int, 1)
	go func() {
		body, code := "", 0
		resp, err := http.Get(d.URL() + "/test/slow")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			body, code = string(b), resp.StatusCode
			resp.Body.Close()
		}
		if code == 200 && body != "slow-done" {
			code = 0
		}
		slow <- code
	}()
	<-entered // the request is in flight

	drained := make(chan bool, 1)
	go func() { drained <- d.Drain() }()
	deadline := time.Now().Add(5 * time.Second)
	for d.State() != "draining" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never entered draining")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is refused while the in-flight request is still running.
	if body, code := httpGet(t, d.URL()+"/v1/tags"); code != 503 {
		t.Fatalf("request during drain = %d %q, want 503", code, body)
	}
	if body, code := httpGet(t, d.URL()+"/v1/status"); code != 200 || !strings.Contains(body, "draining") {
		t.Fatalf("status during drain = %d %q", code, body)
	}

	close(block) // let the in-flight request finish
	if code := <-slow; code != 200 {
		t.Fatalf("in-flight request during drain = %d, want 200 slow-done", code)
	}
	select {
	case clean := <-drained:
		if !clean {
			t.Error("drain reported forced, want clean")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after in-flight request finished")
	}
	if got := metric(t, d.Registry(), "serve_drain_forced_total"); got != 0 {
		t.Errorf("drain_forced = %g, want 0", got)
	}
	if got := metric(t, d.Registry(), "serve_requests_total", "tags", "503"); got != 1 {
		t.Errorf("requests{tags,503} = %g, want 1", got)
	}
	if got := d.State(); got != "closed" {
		t.Errorf("state after drain = %q, want closed", got)
	}
	// Drain is idempotent once closed.
	if !d.Drain() {
		t.Error("second Drain = false, want true no-op")
	}
}

// TestDrainForced pins the deadline: a handler that never finishes is
// force-closed at DrainTimeout and the drain reports unclean.
func TestDrainForced(t *testing.T) {
	d, block, entered := startDrainDaemon(t, 150*time.Millisecond)
	defer close(block)

	go func() {
		resp, err := http.Get(d.URL() + "/test/slow")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	<-entered

	start := time.Now()
	clean := d.Drain()
	if clean {
		t.Fatal("drain of a stalled handler reported clean, want forced")
	}
	if waited := time.Since(start); waited < 150*time.Millisecond || waited > 5*time.Second {
		t.Errorf("forced drain took %v, want >= DrainTimeout and bounded", waited)
	}
	if got := metric(t, d.Registry(), "serve_drain_forced_total"); got != 1 {
		t.Errorf("drain_forced = %g, want 1", got)
	}
}

// TestSnapshotSingleFlight checks one snapshot renders its JSON exactly
// once no matter how many readers coalesce, and that an expired context
// is refused before rendering.
func TestSnapshotSingleFlight(t *testing.T) {
	d := startTestDaemon(t, nil)
	waitEpoch(t, d, 1)
	snap := d.Snapshot()

	first, err := snap.TagsJSON(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	again, err := snap.TagsJSON(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &again[0] {
		t.Error("TagsJSON re-rendered: coalesced readers must share one buffer")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.ReportJSON(ctx); err == nil {
		t.Error("ReportJSON under an expired context returned no error")
	}
}

// TestShardModeSlicesFleet boots shard 1 of a 4-shard fleet and checks
// the daemon hosts exactly its slice: /v1/status carries the shard
// identity block and /v1/tags serves only the shard's global tag-ID
// range.
func TestShardModeSlicesFleet(t *testing.T) {
	fleet := net.Config{APs: 8, Tags: 64, Epochs: 2, Duration: 0.02, Seed: 42}
	specs, err := net.PartitionDeployment(fleet.APs, fleet.Tags, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := startTestDaemon(t, func(c *Config) {
		c.Net = fleet
		c.Shard = net.ShardSpec{Index: 1, Count: 4}
	})
	body, code := httpGet(t, d.URL()+"/v1/status")
	if code != 200 {
		t.Fatalf("status = %d %q", code, body)
	}
	var st struct {
		Shard struct {
			Index, Count, Tags int
			TagBase            int `json:"tag_base"`
			APBase             int `json:"ap_base"`
			APs                int `json:"aps"`
		} `json:"shard"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status body %q: %v", body, err)
	}
	want := specs[1]
	if st.Shard.Index != 1 || st.Shard.Count != 4 ||
		st.Shard.TagBase != want.TagBase || st.Shard.Tags != want.TagCount ||
		st.Shard.APBase != want.APBase || st.Shard.APs != want.APCount {
		t.Errorf("shard block = %+v, want %+v", st.Shard, want)
	}

	body, code = httpGet(t, d.URL()+"/v1/tags")
	if code != 200 {
		t.Fatalf("tags = %d %q", code, body)
	}
	var tags struct {
		Tags []struct {
			ID int `json:"id"`
		} `json:"tags"`
	}
	if err := json.Unmarshal([]byte(body), &tags); err != nil {
		t.Fatal(err)
	}
	if len(tags.Tags) != want.TagCount {
		t.Fatalf("shard serves %d tags, want %d", len(tags.Tags), want.TagCount)
	}
	for _, tg := range tags.Tags {
		if !want.OwnsTag(tg.ID) {
			t.Errorf("shard 1 serves tag %d outside (%d,%d]", tg.ID, want.TagBase, want.TagBase+want.TagCount)
		}
	}

	// A tag outside the slice is 404 on this shard — the router's
	// pinning map is what sends the request to the right place.
	if _, code := httpGet(t, d.URL()+"/v1/tags/1"); code != 404 {
		t.Errorf("foreign tag on shard 1 = %d, want 404", code)
	}
}

// TestShardModeRejectsBadSpecs pins shard-mode startup validation.
func TestShardModeRejectsBadSpecs(t *testing.T) {
	for _, sh := range []net.ShardSpec{
		{Index: 4, Count: 4}, {Index: -1, Count: 4}, {Index: 0, Count: 100},
	} {
		_, err := Start(Config{Addr: "127.0.0.1:0", Net: testNetConfig(), Shard: sh})
		if err == nil {
			t.Errorf("shard %+v accepted", sh)
		}
	}
}
