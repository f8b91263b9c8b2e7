package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"mmtag/internal/fault"
	"mmtag/internal/net"
)

// cfgChange is one staged hot-reload: a validated plan plus the channel
// the epoch loop reports the apply outcome on.
type cfgChange struct {
	plan   *fault.Plan
	spec   string
	result chan error
}

// mount registers the daemon's REST surface on the observability mux.
// /metrics, /events, /healthz and /debug/pprof are inherited from
// internal/obs/serve; everything here serves from the published
// snapshot, so no request ever touches the live deployment state.
func (d *Daemon) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/tags", d.guard("tags", d.handleTags))
	mux.HandleFunc("GET /v1/tags/{id}", d.guard("tag", d.handleTag))
	mux.HandleFunc("GET /v1/report", d.guard("report", d.handleReport))
	mux.HandleFunc("GET /v1/status", d.handleStatus)
	mux.HandleFunc("GET /v1/config", d.handleConfigGet)
	mux.HandleFunc("POST /v1/config", d.guard("config", d.handleConfigPost))
	// The issue-facing alias: POST /config is the documented hot-reload
	// entry point.
	mux.HandleFunc("POST /config", d.guard("config", d.handleConfigPost))
	if d.cfg.testMount != nil {
		d.cfg.testMount(mux)
	}
}

func writeJSON(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		// The request deadline expired inside the snapshot read: an
		// overload symptom like a queue shed, so it reports as a
		// retryable 429 — 5xx stays reserved for real server faults.
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck // client went away
}

func (d *Daemon) handleTags(w http.ResponseWriter, r *http.Request) {
	body, err := d.Snapshot().TagsJSON(r.Context())
	writeJSON(w, body, err)
}

func (d *Daemon) handleTag(w http.ResponseWriter, r *http.Request) {
	id, err := net.ParseTagID(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, ok, err := d.Snapshot().TagJSON(r.Context(), id)
	if err == nil && !ok {
		http.Error(w, fmt.Sprintf("tag %d not deployed", id), http.StatusNotFound)
		return
	}
	writeJSON(w, body, err)
}

func (d *Daemon) handleReport(w http.ResponseWriter, r *http.Request) {
	body, err := d.Snapshot().ReportJSON(r.Context())
	writeJSON(w, body, err)
}

// handleStatus reports the daemon's state machine — deliberately
// outside the admission queue so probes and drain monitoring keep
// working under overload and during drain.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	snap := d.Snapshot()
	body := map[string]any{
		"state":             d.State(),
		"epoch":             snap.Epoch,
		"config_generation": snap.Generation,
		"faults":            snap.FaultSpec,
		"uptime_seconds":    time.Since(d.started).Seconds(),
		"inflight":          d.Inflight(),
	}
	if d.sharded {
		// The shard identity block is the router's source of truth for
		// fleet membership: the resolved AP group and global tag-ID
		// range this daemon owns.
		body["shard"] = map[string]any{
			"index":    d.shard.Index,
			"count":    d.shard.Count,
			"ap_base":  d.shard.APBase,
			"aps":      d.shard.APCount,
			"tag_base": d.shard.TagBase,
			"tags":     d.shard.TagCount,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body) //nolint:errcheck
}

// runtimeConfig is the hot-reloadable surface: today the fault plan;
// the validate-then-swap path is where any future knob lands.
type runtimeConfig struct {
	Faults string `json:"faults"`
}

func (d *Daemon) handleConfigGet(w http.ResponseWriter, r *http.Request) {
	snap := d.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"faults":     snap.FaultSpec,
		"generation": snap.Generation,
	})
}

// handleConfigPost is the hot-reload entry point: validate the posted
// config, stage it for the epoch loop, and report the apply outcome.
// Invalid config is rejected with 400 and the old config keeps serving;
// a config that passes validation but fails its trial epoch is rolled
// back automatically and reported with 422. When the apply outcome
// outlives the request deadline the staging is acknowledged with 202.
func (d *Daemon) handleConfigPost(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req runtimeConfig
	if err := json.Unmarshal(body, &req); err != nil {
		d.rejected.Inc()
		http.Error(w, fmt.Sprintf("bad config body: %v", err), http.StatusBadRequest)
		return
	}
	// Validate before anything is swapped: a bad spec never reaches the
	// epoch loop.
	plan, err := fault.ParseSpec(req.Faults)
	if err != nil {
		d.rejected.Inc()
		http.Error(w, fmt.Sprintf("invalid config, still serving previous generation: %v", err),
			http.StatusBadRequest)
		return
	}
	spec := ""
	if plan != nil {
		spec = plan.String()
	}
	change := &cfgChange{plan: plan, spec: spec, result: make(chan error, 1)}
	select {
	case d.cfgCh <- change:
	default:
		http.Error(w, "another config change is in flight", http.StatusConflict)
		return
	}
	select {
	case err := <-change.result:
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
			"applied":    true,
			"faults":     spec,
			"generation": d.generation.Load(),
		})
	case <-r.Context().Done():
		// Staged but not yet applied; the epoch loop will still apply
		// (or roll back) the change.
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, "config staged; apply outcome pending") //nolint:errcheck
	}
}
