package router

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// probeLoop paces probeAll until Drain/Close stops it.
func (rt *Router) probeLoop() {
	defer close(rt.probeDone)
	ticker := time.NewTicker(rt.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

// shardStatusBody is the slice of a shard's /v1/status the prober
// records.
type shardStatusBody struct {
	State      string `json:"state"`
	Epoch      int64  `json:"epoch"`
	Generation int64  `json:"config_generation"`
}

// probeAll checks every shard's /v1/status concurrently. Probes bypass
// the fan-out semaphore on purpose: health must stay observable while
// the router is saturated, and /v1/status on the shard side likewise
// bypasses its admission queue.
func (rt *Router) probeAll() {
	timeout := rt.cfg.ShardTimeout
	if timeout > 500*time.Millisecond {
		timeout = 500 * time.Millisecond
	}
	var wg sync.WaitGroup
	for _, s := range rt.shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/status", nil)
			if err != nil {
				rt.noteOutcome(s, false)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.noteOutcome(s, false)
				return
			}
			var body shardStatusBody
			err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body)
			resp.Body.Close()
			// A draining shard still answers /v1/status but is about to
			// refuse routed work, so it counts as down for routing.
			alive := err == nil && resp.StatusCode == http.StatusOK && body.State == "serving"
			rt.noteOutcome(s, alive)
			if alive {
				s.epoch.Store(body.Epoch)
				s.gen.Store(body.Generation)
			}
		}(s)
	}
	wg.Wait()
}

// handleStatus reports the router's own state machine plus the prober's
// fleet view. Like the shard tier, it sits outside the drain gate so
// monitoring keeps working while draining.
func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, len(rt.shards))
	up := 0
	for i, s := range rt.shards {
		alive := s.up.Load()
		if alive {
			up++
		}
		entry := map[string]any{
			"shard":             s.spec.Index,
			"url":               s.url,
			"up":                alive,
			"epoch":             s.epoch.Load(),
			"config_generation": s.gen.Load(),
			"ap_base":           s.spec.APBase,
			"aps":               s.spec.APCount,
			"tag_base":          s.spec.TagBase,
			"tags":              s.spec.TagCount,
		}
		if ok := s.lastOKNano.Load(); ok > 0 {
			entry["last_ok_seconds_ago"] = time.Since(time.Unix(0, ok)).Seconds()
		}
		shards[i] = entry
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"state":          rt.State(),
		"uptime_seconds": time.Since(rt.started).Seconds(),
		"shards_total":   len(rt.shards),
		"shards_ok":      up,
		"fleet":          map[string]any{"aps": rt.cfg.APs, "tags": rt.cfg.Tags},
		"shards":         shards,
	})
}
