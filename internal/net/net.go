// Package net is the multi-AP deployment layer: it tiles a 2-D area
// with access-point cells, spatially shards a tag population across
// them by best-SNR association, and simulates every cell concurrently
// on the internal/par pool with par.Derive-sharded RNG streams, so a
// multi-AP run is byte-reproducible at any parallelism. Mobile tags
// hand off between APs under an SNR hysteresis rule (or immediately
// when the serving AP's health state machine loses them), with handoff
// latency and poll duplication accounted in the trace/metrics layer,
// and tags near cell edges contribute a co-channel interference term to
// neighbouring APs' noise floors through the shared link-budget math.
//
// DESIGN.md: §7 (multi-AP deployment layer); the single cell each AP
// runs is the system of §1, and §3's module inventory places this
// package above internal/sim.
package net

import (
	"fmt"
	"math"

	"mmtag/internal/fault"
	"mmtag/internal/geom"
	"mmtag/internal/obs"
	"mmtag/internal/par"
	"mmtag/internal/trace"
)

// Config parameterizes a Deployment. The zero value of every optional
// field selects a documented default; APs and Tags are required.
type Config struct {
	// APs is the number of access points to place (>= 1) on a grid of
	// 8 m cells, each AP wall-mounted at the midpoint of its cell's
	// south edge, facing north into the cell — the warehouse-aisle
	// geometry.
	APs int
	// Cols fixes the grid width in cells; 0 picks a near-square layout
	// (ceil(sqrt(APs)) columns).
	Cols int
	// Tags is the population size (1..255; IDs are global and unique
	// across the whole deployment).
	Tags int
	// TagIDBase offsets the tag IDs this deployment assigns: tags carry
	// IDs TagIDBase+1 .. TagIDBase+Tags (0 by default — the historical
	// 1..Tags numbering). A sharded fleet (ShardSpec.Slice) uses it so
	// every shard's IDs stay globally unique and the router's
	// deterministic owner map holds; TagIDBase+Tags must stay <= 255.
	TagIDBase int
	// MobileFrac is the fraction of tags that move (0 by default); each
	// tag draws its mobility, heading and speed from a private derived
	// RNG stream.
	MobileFrac float64
	// SpeedMps is the mobile-tag speed (1.2 m/s by default).
	SpeedMps float64
	// Epochs is the number of association epochs the run is divided
	// into (4 by default), one second apart. Tags move and
	// re-associate at epoch boundaries; within an epoch cell membership
	// is fixed, which is what lets the cells run concurrently.
	Epochs int
	// Duration is the total simulated polling time across all epochs
	// (0.2 s by default; each epoch simulates Duration/Epochs).
	Duration float64
	// SDM enables space-division multiplexing inside each cell.
	SDM bool
	// SDMChains bounds concurrent beams per AP (sim default when 0).
	SDMChains int
	// Modulation names the tag alphabet ("qpsk" by default).
	Modulation string
	// InterfRangeM bounds how far an edge tag's backscatter couples
	// into a neighbouring AP's receiver (6 m, 0.75 cells, by default):
	// tags of co-channel cells within this range of a victim AP are
	// added to its interference floor.
	InterfRangeM float64
	// ReuseCells is the channel-reuse spacing in cells (1 by default =
	// every cell co-channel): two cells share a channel only when their
	// row and column indices differ by multiples of ReuseCells.
	ReuseCells int
	// Seed drives all randomness; every stream is derived from it via
	// par.Derive, never from scheduling order.
	Seed int64
	// Faults, when non-nil and non-empty, injects the plan into every
	// cell (each cell derives its own fault streams from its cell
	// seed) and arms the MAC health machinery, whose lost/suspect
	// verdicts feed health-triggered handoffs.
	Faults *fault.Plan
	// Pool shards the per-epoch cell runs across workers; nil runs the
	// cells serially in index order with identical output.
	Pool *par.Pool
	// Trace, when non-nil, receives association and handoff events.
	// Cell-level runs are not traced (their interleaving would depend
	// on the schedule); deployment events are emitted serially.
	Trace *trace.Recorder
	// CostSpans additionally emits one "cell-epoch" span event per
	// (epoch, cell) carrying the cell run's measured wall-clock cost.
	// Event order stays schedule-independent, but the wall values are
	// measurements — runs are no longer byte-identical, so this is
	// opt-in and off for golden comparisons.
	CostSpans bool
	// Obs, when non-nil, meters the deployment (handoffs, latency
	// histogram, duplicate polls, per-AP goodput). Nil costs nothing.
	Obs *obs.Handle
}

// Association-epoch and handoff constants of the poll-level engine.
const (
	// epochPeriodS is the wall-clock period between association epochs.
	// Mobility advances on this clock; only a Duration/Epochs slice of
	// each period is simulated at poll-level detail (the standard
	// snapshot method for network-scale runs).
	epochPeriodS = 1
	// hysteresisDB is the SNR margin a neighbour AP must clear over the
	// serving AP before a mobile tag hands off. A tag exactly
	// equidistant between two APs therefore never flaps: ties keep the
	// serving AP, and initial association breaks them toward the
	// lowest AP index.
	hysteresisDB = 3.0
	// handoffBaseS and handoffJitterS model inter-AP handoff latency:
	// each handoff costs the base plus a uniform draw in [0, jitter)
	// from the tag's derived stream.
	handoffBaseS   = 2e-3
	handoffJitterS = 2e-3
)

// withDefaults resolves the documented defaults.
func (c Config) withDefaults() Config {
	if c.SpeedMps == 0 {
		c.SpeedMps = 1.2
	}
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.Duration == 0 {
		c.Duration = 0.2
	}
	if c.Modulation == "" {
		c.Modulation = "qpsk"
	}
	if c.InterfRangeM == 0 {
		c.InterfRangeM = 0.75 * defaultCellM
	}
	if c.ReuseCells <= 0 {
		c.ReuseCells = 1
	}
	return c
}

// Seed-stream namespaces. Streams are disjoint by construction: the
// high bits select the namespace, the low bits the coordinate, and
// par.Derive is a bijection over (root, shard).
const (
	streamPlacement uint64 = 1 << 40
	streamCellBase  uint64 = 2 << 40 // + epoch*maxCells + cell
	streamTagBase   uint64 = 3 << 40 // + epoch*256 + tagID (handoff jitter)
	maxCells               = 1 << 16
)

// tagState is the deployment's view of one tag: its true position and
// motion, and which AP currently serves it.
type tagState struct {
	id      uint8
	pos     geom.Point
	vel     geom.Point
	mobile  bool
	serving int
	// suspect is set when the serving AP's health machine degraded the
	// tag last epoch; it drops the hysteresis margin to zero so the tag
	// escapes a failing cell immediately.
	suspect bool
}

// Deployment is a tiled multi-AP installation: an AP grid over a
// rectangular area, a placed tag population, and the association state
// that shards the population into per-AP cells.
type Deployment struct {
	apGrid
	cfg  Config
	tags []*tagState
	m    *netMetrics
}

// APPos returns AP a's position.
func (d *Deployment) APPos(a int) geom.Point { return d.apPos(a) }

// New builds a deployment: APs on the grid, tags placed uniformly over
// the area from the placement stream, and every tag associated with its
// best-SNR AP (ties break toward the lowest AP index).
func New(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	if cfg.Tags < 1 || cfg.Tags > 255 {
		return nil, fmt.Errorf("net: tags must be in [1,255], got %d", cfg.Tags)
	}
	if cfg.TagIDBase < 0 || cfg.TagIDBase+cfg.Tags > 255 {
		return nil, fmt.Errorf("net: tag IDs %d..%d overflow the uint8 ID space",
			cfg.TagIDBase+1, cfg.TagIDBase+cfg.Tags)
	}
	if cfg.MobileFrac < 0 || cfg.MobileFrac > 1 {
		return nil, fmt.Errorf("net: mobile fraction must be in [0,1], got %g", cfg.MobileFrac)
	}
	g, err := newGrid(cfg.APs, cfg.Cols, defaultCellM, cfg.Modulation)
	if err != nil {
		return nil, err
	}
	d := &Deployment{apGrid: g, cfg: cfg, m: newNetMetrics(cfg.Obs.Registry())}
	// Tag placement and mobility from the placement stream. Positions
	// keep a small margin off the south wall so no tag coincides with
	// an AP.
	rng := par.Rand(cfg.Seed, streamPlacement)
	w, h := d.Width(), d.Height()
	for i := 0; i < cfg.Tags; i++ {
		t := &tagState{
			id: uint8(cfg.TagIDBase + i + 1),
			pos: geom.Point{
				X: rng.Float64() * w,
				Y: 0.5 + rng.Float64()*(h-0.5),
			},
		}
		if rng.Float64() < cfg.MobileFrac {
			t.mobile = true
			heading := rng.Float64() * 2 * math.Pi
			t.vel = geom.Point{
				X: cfg.SpeedMps * math.Cos(heading),
				Y: cfg.SpeedMps * math.Sin(heading),
			}
		}
		t.serving, _ = d.assign(t.pos.X, t.pos.Y)
		d.tags = append(d.tags, t)
	}
	if d.m != nil {
		d.m.aps.Set(float64(cfg.APs))
		d.m.tags.Set(float64(cfg.Tags))
	}
	return d, nil
}

// netMetrics pre-resolves the deployment instruments; nil when off.
type netMetrics struct {
	aps        *obs.Gauge        // net_aps
	tags       *obs.Gauge        // net_tags
	handoffs   *obs.CounterVec   // net_handoffs_total{reason}
	latency    *obs.Quantile     // net_handoff_latency_seconds (summary)
	dupPolls   *obs.Counter      // net_duplicate_polls_total
	cellGoodpt *obs.GaugeVec     // net_cell_goodput_bps{ap}
	assoc      *obs.HistogramVec // net_association_snr_db{ap}
	epochWall  *obs.Quantile     // net_epoch_wall_seconds (summary)
}

func newNetMetrics(reg *obs.Registry) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		aps:  reg.Gauge("net_aps", "Access points in the deployment."),
		tags: reg.Gauge("net_tags", "Tags placed in the deployment."),
		handoffs: reg.CounterVec("net_handoffs_total",
			"Inter-AP handoffs, by trigger.", "reason"),
		latency: reg.Quantile("net_handoff_latency_seconds",
			"Inter-AP handoff latency (reservoir-sampled p50/p90/p99)."),
		dupPolls: reg.Counter("net_duplicate_polls_total",
			"Polls duplicated across APs during handoffs (stale-roster window)."),
		cellGoodpt: reg.GaugeVec("net_cell_goodput_bps",
			"Mean per-epoch goodput of each AP cell.", "ap"),
		assoc: reg.HistogramVec("net_association_snr_db",
			"Estimated SNR at association time, by serving AP (dB).",
			obs.LinearBuckets(-10, 5, 14), "ap"),
		epochWall: reg.Quantile("net_epoch_wall_seconds",
			"Wall-clock cost of one cell-epoch inventory run (reservoir-sampled p50/p90/p99)."),
	}
}
