package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mmtag/internal/net"
)

// shardResult is one shard's slot in a scatter-gather response. The
// exported JSON shape is the per-shard latency breakdown cmd/mmtag-load
// -router parses.
type shardResult struct {
	Shard      int     `json:"shard"`
	OK         bool    `json:"ok"`
	Code       int     `json:"code,omitempty"`
	LatencyMS  float64 `json:"latency_ms"`
	Err        string  `json:"error,omitempty"`
	Epoch      int     `json:"epoch,omitempty"`
	Generation int64   `json:"config_generation,omitempty"`

	body []byte
}

// reserve takes n fan-out slots without blocking; on failure it returns
// what it took. Shedding instead of queueing keeps the router's
// degradation mode identical to the shard tier's: overload is a fast,
// retryable 429, never a slow stall.
func (rt *Router) reserve(n int) (got int, ok bool) {
	for i := 0; i < n; i++ {
		select {
		case rt.sem <- struct{}{}:
		default:
			return i, false
		}
	}
	return n, true
}

func (rt *Router) release(n int) {
	for i := 0; i < n; i++ {
		<-rt.sem
	}
}

func (rt *Router) shedReply(w http.ResponseWriter) {
	rt.shed.Inc()
	w.Header().Set("Retry-After", "1")
	http.Error(w, "router fan-out saturated, retry", http.StatusTooManyRequests)
}

// fetchShard issues one GET against shard s under the per-shard
// deadline, retrying once on a transport error while budget remains.
// HTTP responses — any status — are never retried here: the shard's
// answer is authoritative, and end-to-end retries belong to the client.
func (rt *Router) fetchShard(ctx context.Context, s *shardState, path string) shardResult {
	res := shardResult{Shard: s.spec.Index}
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
		if err != nil {
			lastErr = err
			break
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			lastErr = err
			// Retry only while enough budget remains for a useful
			// second attempt; the jittered pause desynchronizes
			// concurrent fan-outs hammering a flapping shard.
			if deadline, ok := ctx.Deadline(); !ok || time.Until(deadline) < 20*time.Millisecond {
				break
			}
			time.Sleep(time.Duration(2+rand.Intn(6)) * time.Millisecond) //nolint:gosec // jitter, not crypto
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			break
		}
		res.Code = resp.StatusCode
		res.body = body
		res.OK = resp.StatusCode >= 200 && resp.StatusCode < 300
		break
	}
	res.LatencyMS = float64(time.Since(start)) / float64(time.Millisecond)
	label := "error"
	if res.Code != 0 {
		label = strconv.Itoa(res.Code)
	}
	if lastErr != nil && res.Code == 0 {
		res.Err = lastErr.Error()
	}
	rt.shardLat.With(strconv.Itoa(s.spec.Index)).Observe(time.Since(start).Seconds())
	rt.shardReqs.With(strconv.Itoa(s.spec.Index), label).Inc()
	rt.noteOutcome(s, res.OK || (res.Code >= 400 && res.Code < 500))
	return res
}

// noteOutcome folds one upstream outcome into the shard's health view:
// any answer (including a 4xx) proves the shard is alive; a transport
// failure or 5xx marks it down until the prober sees it again.
func (rt *Router) noteOutcome(s *shardState, alive bool) {
	s.up.Store(alive)
	if alive {
		s.lastOKNano.Store(time.Now().UnixNano())
	}
	v := 0.0
	if alive {
		v = 1
	}
	rt.shardUp.With(strconv.Itoa(s.spec.Index)).Set(v)
}

// scatter fans path out to every shard under per-shard deadlines and
// returns the results in shard-index order. The caller must have
// reserved len(shards) fan-out slots.
func (rt *Router) scatter(ctx context.Context, path string) []shardResult {
	results := make([]shardResult, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			results[i] = rt.fetchShard(ctx, s, path)
		}(i, s)
	}
	wg.Wait()
	return results
}

// gatherMeta is the response framing shared by every scatter endpoint:
// the partial-result contract in wire form.
type gatherMeta struct {
	ShardsTotal int           `json:"shards_total"`
	ShardsOK    int           `json:"shards_ok"`
	Partial     bool          `json:"partial"`
	Shards      []shardResult `json:"shards"`
}

func meta(results []shardResult) gatherMeta {
	m := gatherMeta{ShardsTotal: len(results), Shards: results}
	for _, r := range results {
		if r.OK {
			m.ShardsOK++
		}
	}
	m.Partial = m.ShardsOK < m.ShardsTotal
	return m
}

// gatherStatus maps the partial-result contract to a status code: every
// shard answered → 200; some answered → 207 (degraded but useful);
// none → 503 (the router is up, the fleet is not).
func (rt *Router) gatherStatus(m gatherMeta) int {
	switch {
	case m.ShardsOK == m.ShardsTotal:
		return http.StatusOK
	case m.ShardsOK > 0:
		rt.partials.Inc()
		return http.StatusMultiStatus
	default:
		w := http.StatusServiceUnavailable
		return w
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

// tagEntry is one cached tag: the extracted ID plus the shard's
// rendered object, kept verbatim so merged responses are bit-faithful
// to what the owning shard served.
type tagEntry struct {
	id  int
	raw json.RawMessage
}

// tagsCache is the last good /v1/tags answer from one shard.
type tagsCache struct {
	at         time.Time
	epoch      int
	generation int64
	entries    []tagEntry
}

// shardTagsBody is the slice of a shard's /v1/tags response the router
// needs.
type shardTagsBody struct {
	Epoch      int               `json:"epoch"`
	Generation int64             `json:"config_generation"`
	Tags       []json.RawMessage `json:"tags"`
}

// shardTags decodes a shard's /v1/tags body and holds it to the shard
// contract (net.Deployment.TagStates: every tag in ID order): each
// entry must be a JSON object whose integer id the shard owns, in
// strictly ascending order. A body that breaks it is rejected whole, so
// a faulty shard can neither duplicate nor drop tags in the merge.
func shardTags(spec net.ShardSpec, raw []byte) (shardTagsBody, []tagEntry, error) {
	var body shardTagsBody
	if err := json.Unmarshal(raw, &body); err != nil {
		return body, nil, err
	}
	entries := make([]tagEntry, 0, len(body.Tags))
	last := spec.TagBase
	for i, t := range body.Tags {
		var idOnly struct {
			ID int `json:"id"`
		}
		if len(t) == 0 || t[0] != '{' {
			return body, nil, fmt.Errorf("tag %d is not an object", i)
		}
		if err := json.Unmarshal(t, &idOnly); err != nil {
			return body, nil, fmt.Errorf("tag %d: %v", i, err)
		}
		if !spec.OwnsTag(idOnly.ID) || idOnly.ID <= last {
			return body, nil, fmt.Errorf("tag %d: id %d not owned or out of order", i, idOnly.ID)
		}
		last = idOnly.ID
		entries = append(entries, tagEntry{id: idOnly.ID, raw: t})
	}
	return body, entries, nil
}

// handleTags scatter-gathers GET /v1/tags: merge every answering
// shard's tag list (shard order IS global ID order — the partition is
// contiguous and ascending), account the missing or rejected shards,
// and refresh the per-shard stale caches.
func (rt *Router) handleTags(w http.ResponseWriter, r *http.Request) {
	got, ok := rt.reserve(len(rt.shards))
	if !ok {
		rt.release(got)
		rt.shedReply(w)
		return
	}
	defer rt.release(got)
	start := time.Now()
	results := rt.scatter(r.Context(), "/v1/tags")
	merged := make([]json.RawMessage, 0, rt.cfg.Tags)
	for i := range results {
		res := &results[i]
		if !res.OK {
			continue
		}
		body, entries, err := shardTags(rt.shards[i].spec, res.body)
		if err != nil {
			res.OK = false
			res.Err = fmt.Sprintf("bad shard body: %v", err)
			continue
		}
		res.Epoch = body.Epoch
		res.Generation = body.Generation
		for _, e := range entries {
			merged = append(merged, e.raw)
		}
		rt.shards[i].tags.Store(&tagsCache{at: time.Now(), epoch: body.Epoch, generation: body.Generation, entries: entries})
	}
	m := meta(results)
	rt.fanout.With("tags").Observe(time.Since(start).Seconds())
	writeJSON(w, rt.gatherStatus(m), struct {
		gatherMeta
		Tags []json.RawMessage `json:"tags"`
	}{m, merged})
}

// shardReportBody is the slice of a shard's /v1/report response the
// router aggregates.
type shardReportBody struct {
	Epoch      int   `json:"epoch"`
	Generation int64 `json:"config_generation"`
	Report     struct {
		APs                 int
		Tags                int
		FramesOK            int
		FramesLost          int
		Discovered          int
		DuplicatePolls      int
		AggregateGoodputBps float64
	} `json:"report"`
}

// handleReport scatter-gathers GET /v1/report and folds the shard
// reports into fleet totals; the per-shard breakdown rides in the
// shards array.
func (rt *Router) handleReport(w http.ResponseWriter, r *http.Request) {
	got, ok := rt.reserve(len(rt.shards))
	if !ok {
		rt.release(got)
		rt.shedReply(w)
		return
	}
	defer rt.release(got)
	start := time.Now()
	results := rt.scatter(r.Context(), "/v1/report")
	type fleetReport struct {
		APs                 int     `json:"aps"`
		Tags                int     `json:"tags"`
		FramesOK            int     `json:"frames_ok"`
		FramesLost          int     `json:"frames_lost"`
		Discovered          int     `json:"discovered"`
		DuplicatePolls      int     `json:"duplicate_polls"`
		AggregateGoodputBps float64 `json:"aggregate_goodput_bps"`
	}
	var fleet fleetReport
	for i := range results {
		res := &results[i]
		if !res.OK {
			continue
		}
		var body shardReportBody
		if err := json.Unmarshal(res.body, &body); err != nil {
			res.OK = false
			res.Err = fmt.Sprintf("bad shard body: %v", err)
			continue
		}
		res.Epoch = body.Epoch
		res.Generation = body.Generation
		fleet.APs += body.Report.APs
		fleet.Tags += body.Report.Tags
		fleet.FramesOK += body.Report.FramesOK
		fleet.FramesLost += body.Report.FramesLost
		fleet.Discovered += body.Report.Discovered
		fleet.DuplicatePolls += body.Report.DuplicatePolls
		fleet.AggregateGoodputBps += body.Report.AggregateGoodputBps
	}
	m := meta(results)
	rt.fanout.With("report").Observe(time.Since(start).Seconds())
	writeJSON(w, rt.gatherStatus(m), struct {
		gatherMeta
		Report fleetReport `json:"report"`
	}{m, fleet})
}

// handleTag pins GET /v1/tags/{id} to the owning shard via the
// deterministic partition map. The owning shard's answer — 200 or its
// own 404 — passes through verbatim; when the shard is unreachable the
// router degrades to the last cached snapshot entry (207 + stale
// marker) before giving up with 503.
func (rt *Router) handleTag(w http.ResponseWriter, r *http.Request) {
	tid, err := net.ParseTagID(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := int(tid)
	owner := net.OwnerShard(rt.cfg.Tags, len(rt.shards), id)
	if owner < 0 {
		http.Error(w, fmt.Sprintf("tag %d outside the fleet population", id), http.StatusNotFound)
		return
	}
	got, ok := rt.reserve(1)
	if !ok {
		rt.release(got)
		rt.shedReply(w)
		return
	}
	defer rt.release(got)
	s := rt.shards[owner]
	res := rt.fetchShard(r.Context(), s, "/v1/tags/"+strconv.Itoa(id))
	w.Header().Set("X-Mmtag-Shard", strconv.Itoa(owner))
	if res.Code != 0 && res.Code < 500 {
		// The owning shard answered; its verdict is authoritative.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.Code)
		w.Write(res.body) //nolint:errcheck
		return
	}
	// Shard down or erroring: serve the stale cached entry if one
	// exists. Stale reads are marked (and 207, not 200) so a client can
	// tell degraded data from live data.
	if cache := s.tags.Load(); cache != nil {
		for _, e := range cache.entries {
			if e.id == id {
				rt.staleServed.Inc()
				writeJSON(w, http.StatusMultiStatus, map[string]any{
					"stale":             true,
					"age_seconds":       time.Since(cache.at).Seconds(),
					"shard":             owner,
					"epoch":             cache.epoch,
					"config_generation": cache.generation,
					"tag":               e.raw,
				})
				return
			}
		}
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, fmt.Sprintf("shard %d unavailable and no cached snapshot holds tag %d", owner, id),
		http.StatusServiceUnavailable)
}
