package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mmtag/internal/net"
)

// stubShard fakes one internal/serve daemon: just enough of the REST
// surface for the router — status, tag list, pinned tag, report and the
// hot-reload config pair — with knobs for latency, refusal and the
// 202-staged apply path.
type stubShard struct {
	spec net.ShardSpec

	mu         sync.Mutex
	faults     string
	generation int64
	delay      time.Duration
	missing    map[int]bool // owned IDs the stub 404s (dead tags)
	failConfig bool         // refuse every POST /v1/config with 422
	ack202     bool         // acknowledge POST with 202, apply async
	rawTags    string       // when set, served verbatim as the /v1/tags list
	configLog  []string     // specs applied, in order

	srv *httptest.Server
}

func (s *stubShard) setDelay(d time.Duration) {
	s.mu.Lock()
	s.delay = d
	s.mu.Unlock()
}

func (s *stubShard) getFaults() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

func (s *stubShard) handler() http.Handler {
	mux := http.NewServeMux()
	pause := func() {
		s.mu.Lock()
		d := s.delay
		s.mu.Unlock()
		if d > 0 {
			time.Sleep(d)
		}
	}
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		gen := s.generation
		s.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"state": "serving", "epoch": 7, "config_generation": gen,
		})
	})
	mux.HandleFunc("GET /v1/tags", func(w http.ResponseWriter, r *http.Request) {
		pause()
		s.mu.Lock()
		raw := s.rawTags
		s.mu.Unlock()
		if raw != "" {
			fmt.Fprintf(w, `{"epoch":7,"config_generation":0,"tags":%s}`, raw)
			return
		}
		tags := []map[string]any{}
		for id := s.spec.TagBase + 1; id <= s.spec.TagBase+s.spec.TagCount; id++ {
			tags = append(tags, map[string]any{"id": id, "serving_ap": s.spec.APBase})
		}
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"epoch": 7, "config_generation": 0, "tags": tags,
		})
	})
	mux.HandleFunc("GET /v1/tags/{id}", func(w http.ResponseWriter, r *http.Request) {
		pause()
		var id int
		fmt.Sscanf(r.PathValue("id"), "%d", &id) //nolint:errcheck
		s.mu.Lock()
		gone := s.missing[id]
		s.mu.Unlock()
		if !s.spec.OwnsTag(id) || gone {
			http.Error(w, "tag not deployed", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"id": id, "serving_ap": s.spec.APBase}) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/report", func(w http.ResponseWriter, r *http.Request) {
		pause()
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"epoch": 7,
			"report": map[string]any{
				"APs": s.spec.APCount, "Tags": s.spec.TagCount,
				"FramesOK": 100, "FramesLost": 1, "AggregateGoodputBps": 5e6,
			},
		})
	})
	mux.HandleFunc("GET /v1/config", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		body := map[string]any{"faults": s.faults, "generation": s.generation}
		s.mu.Unlock()
		json.NewEncoder(w).Encode(body) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/config", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Faults string `json:"faults"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.failConfig {
			http.Error(w, "trial epoch failed, rolled back", http.StatusUnprocessableEntity)
			return
		}
		s.faults = req.Faults
		s.generation++
		s.configLog = append(s.configLog, req.Faults)
		if s.ack202 {
			w.WriteHeader(http.StatusAccepted)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"applied": true, "faults": s.faults, "generation": s.generation,
		})
	})
	return mux
}

// startFleet launches n stub shards for an aps×tags fleet plus a router
// fronting them, with test-sized timeouts.
func startFleet(t *testing.T, aps, tags, n int, tweak func(cfg *Config)) (*Router, []*stubShard) {
	t.Helper()
	specs, err := net.PartitionDeployment(aps, tags, n)
	if err != nil {
		t.Fatal(err)
	}
	stubs := make([]*stubShard, n)
	urls := make([]string, n)
	for i := range stubs {
		stubs[i] = &stubShard{spec: specs[i], missing: map[int]bool{}}
		stubs[i].srv = httptest.NewServer(stubs[i].handler())
		urls[i] = stubs[i].srv.URL
		t.Cleanup(stubs[i].srv.Close)
	}
	cfg := Config{
		Addr:          "127.0.0.1:0",
		Shards:        urls,
		APs:           aps,
		Tags:          tags,
		ShardTimeout:  300 * time.Millisecond,
		ReloadTimeout: 2 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
		DrainTimeout:  time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	rt, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, stubs
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad body %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

type gatherBody struct {
	ShardsTotal int  `json:"shards_total"`
	ShardsOK    int  `json:"shards_ok"`
	Partial     bool `json:"partial"`
	Tags        []struct {
		ID int `json:"id"`
	} `json:"tags"`
}

// TestScatterMergesFleet pins the happy path: every shard answers, the
// merged tag list is the whole fleet in global ID order, status 200.
func TestScatterMergesFleet(t *testing.T) {
	rt, _ := startFleet(t, 8, 16, 4, nil)
	var body gatherBody
	if code := getJSON(t, rt.URL()+"/v1/tags", &body); code != http.StatusOK {
		t.Fatalf("/v1/tags = %d", code)
	}
	if body.ShardsOK != 4 || body.Partial {
		t.Fatalf("accounting = %+v", body)
	}
	if len(body.Tags) != 16 {
		t.Fatalf("merged %d tags, want 16", len(body.Tags))
	}
	for i, tag := range body.Tags {
		if tag.ID != i+1 {
			t.Fatalf("tag %d has id %d; merge order broken", i, tag.ID)
		}
	}
}

// TestSlowShardDegradesToPartial pins the partial-result contract: a
// shard that blows the per-shard deadline costs its slot (207, one
// failed shard, its tag range missing) but never stalls the fan-out.
func TestSlowShardDegradesToPartial(t *testing.T) {
	rt, stubs := startFleet(t, 8, 16, 4, nil)
	stubs[2].setDelay(2 * time.Second)
	start := time.Now()
	var body gatherBody
	code := getJSON(t, rt.URL()+"/v1/tags", &body)
	if wall := time.Since(start); wall > 1500*time.Millisecond {
		t.Fatalf("fan-out stalled %s behind the slow shard", wall)
	}
	if code != http.StatusMultiStatus {
		t.Fatalf("/v1/tags = %d, want 207", code)
	}
	if body.ShardsOK != 3 || !body.Partial {
		t.Fatalf("accounting = %+v", body)
	}
	if len(body.Tags) != 12 {
		t.Fatalf("merged %d tags, want 12 (slow shard's 4 missing)", len(body.Tags))
	}
	for _, tag := range body.Tags {
		if stubs[2].spec.OwnsTag(tag.ID) {
			t.Fatalf("tag %d from the timed-out shard leaked into the merge", tag.ID)
		}
	}
}

// TestBadShardBodyIsRejected pins the merge's half of "every global
// tag appears exactly once": a shard whose tag list repeats an ID,
// carries a non-integer ID or a null entry is a failed shard (207,
// "bad shard body"), none of its tags reach the merge, and its stale
// cache keeps the last good list.
func TestBadShardBodyIsRejected(t *testing.T) {
	for _, tc := range []struct{ name, raw string }{
		{"duplicate_ids", `[{"id":1},{"id":2},{"id":1}]`},
		{"string_id", `[{"id":"3"},{"id":4}]`},
		{"null_entry", `[null,{"id":3},{"id":4}]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, stubs := startFleet(t, 4, 4, 2, nil)
			if code := getJSON(t, rt.URL()+"/v1/tags", nil); code != http.StatusOK {
				t.Fatalf("priming scatter = %d", code)
			}
			primed := rt.shards[1].tags.Load()
			stubs[1].mu.Lock()
			stubs[1].rawTags = tc.raw
			stubs[1].mu.Unlock()
			var body struct {
				gatherBody
				Shards []shardResult `json:"shards"`
			}
			if code := getJSON(t, rt.URL()+"/v1/tags", &body); code != http.StatusMultiStatus {
				t.Fatalf("/v1/tags = %d, want 207", code)
			}
			if body.ShardsOK != 1 || !body.Partial || !strings.Contains(body.Shards[1].Err, "bad shard body") {
				t.Fatalf("accounting = %+v", body)
			}
			if len(body.Tags) != 2 || body.Tags[0].ID != 1 || body.Tags[1].ID != 2 {
				t.Fatalf("merged %+v, want shard 0's tags 1 and 2 only", body.Tags)
			}
			if rt.shards[1].tags.Load() != primed {
				t.Fatal("refreshed the stale cache from a rejected body")
			}
		})
	}
}

// TestPinnedTagRouting pins single-tag reads: the owning shard answers,
// its 404 passes through verbatim, and out-of-population IDs never
// leave the router.
func TestPinnedTagRouting(t *testing.T) {
	rt, stubs := startFleet(t, 8, 16, 4, nil)
	var tag struct {
		ID        int `json:"id"`
		ServingAP int `json:"serving_ap"`
	}
	if code := getJSON(t, rt.URL()+"/v1/tags/9", &tag); code != http.StatusOK {
		t.Fatalf("/v1/tags/9 = %d", code)
	}
	// Tag 9 of 16 over 4 shards lives on shard 2 (tags 9..12).
	if tag.ServingAP != stubs[2].spec.APBase {
		t.Fatalf("tag 9 served by AP %d, want shard 2's base %d", tag.ServingAP, stubs[2].spec.APBase)
	}
	stubs[2].mu.Lock()
	stubs[2].missing[9] = true
	stubs[2].mu.Unlock()
	if code := getJSON(t, rt.URL()+"/v1/tags/9", nil); code != http.StatusNotFound {
		t.Fatalf("dead tag = %d, want the shard's own 404 passed through", code)
	}
	if code := getJSON(t, rt.URL()+"/v1/tags/99", nil); code != http.StatusNotFound {
		t.Fatalf("out-of-population id = %d, want 404", code)
	}
}

// TestStaleFallback pins the degraded read path: once a scatter has
// primed the per-shard cache, a pinned read to a dead shard serves the
// cached entry marked stale with 207 — and 503 only without a cache.
func TestStaleFallback(t *testing.T) {
	rt, stubs := startFleet(t, 8, 16, 4, nil)
	if code := getJSON(t, rt.URL()+"/v1/tags", nil); code != http.StatusOK {
		t.Fatalf("priming scatter = %d", code)
	}
	stubs[1].srv.Close() // shard 1 (tags 5..8) dies
	var stale struct {
		Stale bool `json:"stale"`
		Shard int  `json:"shard"`
		Tag   struct {
			ID int `json:"id"`
		} `json:"tag"`
	}
	if code := getJSON(t, rt.URL()+"/v1/tags/6", &stale); code != http.StatusMultiStatus {
		t.Fatalf("pinned read to dead shard = %d, want 207 stale", code)
	}
	if !stale.Stale || stale.Shard != 1 || stale.Tag.ID != 6 {
		t.Fatalf("stale body = %+v", stale)
	}

	// A fresh router with no primed cache has nothing to fall back on.
	rt2, stubs2 := startFleet(t, 8, 16, 4, nil)
	stubs2[1].srv.Close()
	if code := getJSON(t, rt2.URL()+"/v1/tags/6", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("unprimed pinned read to dead shard = %d, want 503", code)
	}
}

// TestReportAggregation pins the fleet rollup of /v1/report.
func TestReportAggregation(t *testing.T) {
	rt, _ := startFleet(t, 8, 16, 4, nil)
	var body struct {
		ShardsOK int `json:"shards_ok"`
		Report   struct {
			FramesOK int     `json:"frames_ok"`
			Goodput  float64 `json:"aggregate_goodput_bps"`
			Tags     int     `json:"tags"`
		} `json:"report"`
	}
	if code := getJSON(t, rt.URL()+"/v1/report", &body); code != http.StatusOK {
		t.Fatalf("/v1/report = %d", code)
	}
	if body.Report.FramesOK != 400 || body.Report.Tags != 16 || body.Report.Goodput != 2e7 {
		t.Fatalf("rollup = %+v", body.Report)
	}
}

func postConfig(t *testing.T, url, spec string) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"faults": spec})
	resp, err := http.Post(url+"/v1/config", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/config: %v", err)
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, reply
}

// TestRollingReloadApplies pins the happy roll: every shard ends on the
// new spec, applied one at a time in shard order, including a shard
// that takes the 202 staged-apply path.
func TestRollingReloadApplies(t *testing.T) {
	rt, stubs := startFleet(t, 8, 16, 4, nil)
	stubs[2].mu.Lock()
	stubs[2].ack202 = true
	stubs[2].mu.Unlock()
	code, reply := postConfig(t, rt.URL(), "ackloss=0.2")
	if code != http.StatusOK {
		t.Fatalf("rolling reload = %d: %s", code, reply)
	}
	for i, s := range stubs {
		if got := s.getFaults(); got != "ackloss=0.2" {
			t.Fatalf("shard %d ended on %q", i, got)
		}
	}
}

// TestRollingReloadRollsBack pins the ladder's failure mode: a mid-roll
// 422 rolls every already-applied shard back to its prior spec and the
// roll reports 422 — the fleet never stays split-brained.
func TestRollingReloadRollsBack(t *testing.T) {
	rt, stubs := startFleet(t, 8, 16, 4, nil)
	if code, reply := postConfig(t, rt.URL(), "ackloss=0.1"); code != http.StatusOK {
		t.Fatalf("baseline roll = %d: %s", code, reply)
	}
	stubs[2].mu.Lock()
	stubs[2].failConfig = true
	stubs[2].mu.Unlock()
	code, reply := postConfig(t, rt.URL(), "snr=3")
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("failed roll = %d: %s", code, reply)
	}
	var body struct {
		FailedShard int `json:"failed_shard"`
		RolledBack  int `json:"rolled_back"`
	}
	if err := json.Unmarshal(reply, &body); err != nil || body.FailedShard != 2 || body.RolledBack != 2 {
		t.Fatalf("rollback accounting = %s (%v)", reply, err)
	}
	for i := 0; i < 2; i++ {
		if got := stubs[i].getFaults(); got != "ackloss=0.1" {
			t.Fatalf("shard %d left on %q after rollback, want ackloss=0.1", i, got)
		}
		// The shard saw: baseline, the doomed spec, then the rollback.
		stubs[i].mu.Lock()
		log := append([]string(nil), stubs[i].configLog...)
		stubs[i].mu.Unlock()
		want := []string{"ackloss=0.1", "snr=3", "ackloss=0.1"}
		if len(log) != 3 || log[0] != want[0] || log[1] != want[1] || log[2] != want[2] {
			t.Fatalf("shard %d apply log = %v, want %v", i, log, want)
		}
	}
	if got := stubs[3].getFaults(); got != "ackloss=0.1" {
		t.Fatalf("shard 3 (never rolled) on %q", got)
	}
}

// TestReloadValidationNeverTouchesFleet pins router-side validation:
// garbage specs die with 400 before any shard sees a POST.
func TestReloadValidationNeverTouchesFleet(t *testing.T) {
	rt, stubs := startFleet(t, 8, 16, 4, nil)
	code, _ := postConfig(t, rt.URL(), "bogus=1")
	if code != http.StatusBadRequest {
		t.Fatalf("invalid spec = %d, want 400", code)
	}
	for i, s := range stubs {
		s.mu.Lock()
		n := len(s.configLog)
		s.mu.Unlock()
		if n != 0 {
			t.Fatalf("shard %d saw %d config POSTs for an invalid spec", i, n)
		}
	}
}

// TestFanoutShedsWhenSaturated pins the in-flight bound: a scatter that
// cannot reserve a slot per shard is shed with 429, not queued.
func TestFanoutShedsWhenSaturated(t *testing.T) {
	rt, _ := startFleet(t, 8, 16, 4, func(cfg *Config) {
		cfg.MaxInflight = 2 // < 4 shards: every scatter must shed
	})
	if code := getJSON(t, rt.URL()+"/v1/tags", nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated scatter = %d, want 429", code)
	}
	// Pinned reads need only one slot, so they still work.
	if code := getJSON(t, rt.URL()+"/v1/tags/3", nil); code != http.StatusOK {
		t.Fatalf("pinned read under the same bound = %d, want 200", code)
	}
}

// TestStatusTracksShardHealth pins /v1/status: the prober notices a
// dead shard within a few intervals and the fleet accounting follows.
func TestStatusTracksShardHealth(t *testing.T) {
	rt, stubs := startFleet(t, 8, 16, 4, nil)
	var status struct {
		State       string `json:"state"`
		ShardsTotal int    `json:"shards_total"`
		ShardsOK    int    `json:"shards_ok"`
		Shards      []struct {
			Up      bool `json:"up"`
			TagBase int  `json:"tag_base"`
		} `json:"shards"`
	}
	if code := getJSON(t, rt.URL()+"/v1/status", &status); code != http.StatusOK {
		t.Fatal("status not 200")
	}
	if status.State != "serving" || status.ShardsOK != 4 || status.ShardsTotal != 4 {
		t.Fatalf("status = %+v", status)
	}
	stubs[3].srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		getJSON(t, rt.URL()+"/v1/status", &status)
		if status.ShardsOK == 3 && !status.Shards[3].Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never noticed the dead shard: %+v", status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainRefusesRoutedWork pins the drain gate: after Drain, routed
// endpoints 503 while /v1/status stays reachable via the recorded
// state (the listener is closed, so check through the state machine).
func TestDrainRefusesRoutedWork(t *testing.T) {
	rt, _ := startFleet(t, 8, 16, 4, nil)
	if !rt.Drain() {
		t.Fatal("drain with no in-flight work reported unclean")
	}
	if got := rt.State(); got != "closed" {
		t.Fatalf("state after drain = %q", got)
	}
	// Drain is idempotent.
	if !rt.Drain() {
		t.Fatal("second drain not a no-op")
	}
}
