package net

import (
	"fmt"
	"math"
	"sync"

	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/link"
	"mmtag/internal/obs"
	"mmtag/internal/par"
)

// The scale path: a tiered-fidelity deployment for populations far
// beyond the 255-tag poll-level Deployment. Tags are never
// materialized — each one's position, association, fidelity tier and
// frame outcomes are a pure function of (Seed, tag index) computed on
// the fly from private par.Derive streams. Each chunk's per-AP integer
// tallies merge once into O(APs) shared state; integer sums commute, so
// the result is byte-identical at any parallelism and any chunking.

// Scale-path stream namespaces, disjoint from the deployment streams
// above by the high bits. Each tag owns one placement stream and one
// link stream per fidelity tier.
const (
	streamScalePlaceBase uint64 = 4 << 40 // + tag index
	streamScaleLinkBase  uint64 = 5 << 40 // + tier*scaleTierStride + tag index
	scaleTierStride      uint64 = 1 << 33
	// maxScaleTags bounds the population so tag indices stay inside
	// their stream namespace slice.
	maxScaleTags = 1 << 26
)

// ScaleConfig parameterizes a tiered-fidelity scale run. APs, Tags and
// Seed are required; the zero value of everything else selects a
// documented default.
type ScaleConfig struct {
	// APs is the number of access points (>= 1), tiled like Config's
	// on a near-square grid of CellM-pitch cells (8 m by default).
	APs   int
	CellM float64
	// Tags is the population size (1..maxScaleTags). Tags are placed
	// uniformly over the deployment area from per-tag derived streams.
	Tags int
	// Tiers maps association SNR to fidelity tier
	// (link.DefaultThresholds by default).
	Tiers *link.Thresholds
	// FramesPerTag is how many poll frames each tag attempts (4 by
	// default).
	FramesPerTag int
	// PayloadBytes sizes each frame's payload (32 by default; at most
	// frame.MaxPayload).
	PayloadBytes int
	// Seed drives all randomness via par.Derive.
	Seed int64
	// Pool shards chunks across workers; nil runs serially with
	// identical output.
	Pool *par.Pool
	// Obs, when non-nil, meters the run with streaming instruments
	// (reservoir quantiles and log-histograms; O(1) state per family).
	Obs *obs.Handle
	// chunkSize is the tag-index block one pool shard processes
	// (scaleChunkFor(Tags) unless a test sets it). Chunk boundaries
	// depend only on Tags and the chunk size, never on the worker
	// count, so results are chunking-stable.
	chunkSize int
}

// scaleChunkSize is the largest tag-index block of one pool shard,
// and the default chunk of every population of 32,768 tags or more.
const scaleChunkSize = 4096

// scaleChunkFanout is how many chunks a smaller population is cut
// into, so that a small Run still fans out over the pool, and
// scaleMinChunk floors the chunk so a tiny one does not pay a pool
// claim and a chunk set-up for a handful of tags.
const (
	scaleChunkFanout = 8
	scaleMinChunk    = 512
)

// scaleChunkFor returns the default chunk size of a tags-tag
// population: ceil(tags/scaleChunkFanout), clamped to
// [scaleMinChunk, scaleChunkSize]. It depends only on the population,
// never on the worker count.
func scaleChunkFor(tags int) int {
	return min(scaleChunkSize, max(scaleMinChunk, (tags+scaleChunkFanout-1)/scaleChunkFanout))
}

// scaleRate is the rate every scale-path tag polls at: ProbeRate, the
// mid-ladder entry the deployment probes with. Its alphabet is also
// the association estimate's. Its QPSK bit error rate falls with SNR,
// the premise of the tier-c link.BudgetTable.
var scaleRate = ProbeRate()

// scaleSNRScale converts association-bandwidth SNR to scaleRate's
// symbol-rate noise bandwidth.
var scaleSNRScale = assocBandwidthHz / scaleRate.SymbolRate()

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.FramesPerTag == 0 {
		c.FramesPerTag = 4
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 32
	}
	if c.chunkSize == 0 {
		c.chunkSize = scaleChunkFor(c.Tags)
	}
	return c
}

// ScaleCell is one AP's aggregate over the population it serves.
type ScaleCell struct {
	// AP is the cell's AP index.
	AP int
	// Tags is the number of tags associated with this AP, split by
	// fidelity tier in TierTags (indexed by link.Tier).
	Tags     int64
	TierTags [3]int64
	// FramesOK and FramesLost count poll-frame outcomes.
	FramesOK, FramesLost int64
	// SNRSumMilliDB accumulates the association SNR (milli-dB) over
	// the cell's tags; divide by Tags for the mean. Integer so the
	// parallel fold is exact.
	SNRSumMilliDB int64
}

// MeanSNRMilliDB returns the cell's mean association SNR in milli-dB
// (0 for an empty cell).
func (c *ScaleCell) MeanSNRMilliDB() int64 {
	if c.Tags == 0 {
		return 0
	}
	return c.SNRSumMilliDB / c.Tags
}

// ScaleReport is the outcome of a scale run. Every field is integer
// (or echoes the configuration), so rendering it is byte-stable.
type ScaleReport struct {
	APs, Rows, Cols, Tags int
	Rate                  string
	FramesPerTag          int
	PayloadBytes          int
	AirBits               int
	// TierTags is the population split across the fidelity ladder.
	TierTags [3]int64
	// FramesOK and FramesLost are deployment totals.
	FramesOK, FramesLost int64
	// DeliveredBits is the information delivered (FramesOK * payload
	// bits).
	DeliveredBits int64
	// Cells holds one aggregate per AP, in AP index order.
	Cells []ScaleCell
}

// scaleAgg is the shared O(APs) aggregate each chunk merges into once.
// Every field is an integer sum, so merge order cannot change totals.
type scaleAgg struct {
	mu    sync.Mutex
	cells []ScaleCell
}

// merge adds a chunk's cells into the aggregate.
func (g *scaleAgg) merge(cells []ScaleCell) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for a := range cells {
		c, dst := &cells[a], &g.cells[a]
		dst.Tags += c.Tags
		for t, n := range c.TierTags {
			dst.TierTags[t] += n
		}
		dst.FramesOK += c.FramesOK
		dst.FramesLost += c.FramesLost
		dst.SNRSumMilliDB += c.SNRSumMilliDB
	}
}

// scaleMetrics are the streaming observability instruments of the
// scale path; nil when metering is off. Reservoir and histogram state
// is O(1) per family regardless of population size.
type scaleMetrics struct {
	aps, tags *obs.Gauge
	snr       *obs.Quantile     // scale_tag_snr_db (reservoir summary)
	delivery  *obs.LogHistogram // scale_tag_delivery_ratio
	tierTags  *obs.CounterVec   // scale_tier_tags_total{tier}
}

func newScaleMetrics(reg *obs.Registry) *scaleMetrics {
	if reg == nil {
		return nil
	}
	return &scaleMetrics{
		aps:  reg.Gauge("scale_aps", "Access points in the scale deployment."),
		tags: reg.Gauge("scale_tags", "Tags simulated by the scale deployment."),
		snr: reg.Quantile("scale_tag_snr_db",
			"Association SNR across the population (reservoir-sampled p50/p90/p99)."),
		delivery: reg.LogHistogram("scale_tag_delivery_ratio",
			"Per-tag delivered-frame fraction."),
		tierTags: reg.CounterVec("scale_tier_tags_total",
			"Tags simulated at each fidelity tier.", "tier"),
	}
}

// ScaleDeployment is the immutable geometry and link model of a scale
// run; Run may be called repeatedly and concurrently.
type ScaleDeployment struct {
	apGrid
	cfg     ScaleConfig
	tiers   link.Thresholds
	airBits int
	m       *scaleMetrics
	// budgetOnce builds budgetTable, the tier-c bracket table, on the
	// first Run rather than in NewScale: the table costs about 1,800
	// closed-form evaluations, far more than the rest of set-up.
	budgetOnce  sync.Once
	budgetTable *link.BudgetTable
}

// NewScale builds the scale deployment: the AP grid and association
// model the poll-level Deployment uses, at the configured pitch.
func NewScale(cfg ScaleConfig) (*ScaleDeployment, error) {
	cfg = cfg.withDefaults()
	if cfg.Tags < 1 || cfg.Tags > maxScaleTags {
		return nil, fmt.Errorf("net: scale tags must be in [1,%d], got %d", maxScaleTags, cfg.Tags)
	}
	if cfg.FramesPerTag < 1 {
		return nil, fmt.Errorf("net: frames per tag must be >= 1, got %d", cfg.FramesPerTag)
	}
	if cfg.PayloadBytes < 0 || cfg.PayloadBytes > frame.MaxPayload {
		return nil, fmt.Errorf("net: payload bytes must be in [1,%d], got %d", frame.MaxPayload, cfg.PayloadBytes)
	}
	g, err := newGrid(cfg.APs, 0, cfg.CellM, scaleRate.Mod.Name)
	if err != nil {
		return nil, err
	}
	s := &ScaleDeployment{
		apGrid:  g,
		cfg:     cfg,
		tiers:   link.DefaultThresholds(),
		airBits: frame.AirBits(cfg.PayloadBytes, frame.Options{Coded: scaleRate.Coded}),
		m:       newScaleMetrics(cfg.Obs.Registry()),
	}
	if cfg.Tiers != nil {
		s.tiers = *cfg.Tiers
	}
	if s.m != nil {
		s.m.aps.Set(float64(cfg.APs))
		s.m.tags.Set(float64(cfg.Tags))
	}
	return s, nil
}

// tagPos derives tag i's position from its private placement stream —
// the same margins Deployment placement uses (0.5 m off the south
// wall so no tag coincides with an AP).
func (s *ScaleDeployment) tagPos(i int) (x, y float64) {
	ps := par.NewStream(s.cfg.Seed, streamScalePlaceBase+uint64(i))
	x = ps.Float64() * s.Width()
	y = 0.5 + ps.Float64()*(s.Height()-0.5)
	return x, y
}

// TagAssignment exposes one tag's derived placement, serving AP,
// association SNR (dB) and fidelity tier — a pure function of the
// configuration, independent of Run.
func (s *ScaleDeployment) TagAssignment(i int) (apIdx int, snrDB float64, tier link.Tier) {
	x, y := s.tagPos(i)
	apIdx, snr := s.assign(x, y)
	snrDB = 10 * math.Log10(snr)
	return apIdx, snrDB, s.tiers.Pick(snrDB)
}

// Run simulates the population: chunks of consecutive tag
// indices fan out over the pool, every tag draws its frames from its
// private per-tier stream, and each chunk merges its per-AP cells into
// the report's once. The report is byte-identical at any worker count.
func (s *ScaleDeployment) Run() (*ScaleReport, error) {
	cfg := s.cfg
	s.budgetOnce.Do(func() { s.budgetTable = link.NewBudgetTable(scaleRate, s.airBits) })
	agg := &scaleAgg{cells: make([]ScaleCell, cfg.APs)}
	nChunks := (cfg.Tags + cfg.chunkSize - 1) / cfg.chunkSize
	if err := cfg.Pool.Map(nil, nChunks, func(ci int) error {
		return s.runChunk(ci, agg)
	}); err != nil {
		return nil, fmt.Errorf("net: scale run: %w", err)
	}
	rep := &ScaleReport{
		APs:          cfg.APs,
		Rows:         s.rows,
		Cols:         s.cols,
		Tags:         cfg.Tags,
		Rate:         scaleRate.String(),
		FramesPerTag: cfg.FramesPerTag,
		PayloadBytes: cfg.PayloadBytes,
		AirBits:      s.airBits,
		Cells:        agg.cells, // every chunk has merged; Run owns agg
	}
	for a := range rep.Cells {
		cell := &rep.Cells[a]
		cell.AP = a
		for t, n := range cell.TierTags {
			rep.TierTags[t] += n
		}
		rep.FramesOK += cell.FramesOK
		rep.FramesLost += cell.FramesLost
	}
	rep.DeliveredBits = rep.FramesOK * int64(cfg.PayloadBytes) * 8
	if s.m != nil {
		for t, n := range rep.TierTags {
			s.m.tierTags.With(link.Tier(t).String()).Add(float64(n))
		}
	}
	return rep, nil
}

// scaleFlushLanes bounds how many staged tier-a frame waveforms a
// chunk holds before flushing them through the batched demodulator —
// a memory cap, not a correctness knob: outcomes are per-trial, so any
// flush boundary between tags yields the same report.
const scaleFlushLanes = 256

// chunkEngines is one chunk's working set: the engines, the shared
// reseeded RNG, the tier-a staging state and the per-AP cells (zeroed
// at chunk start), each built on first use. Engines cache only tables
// and scratch, never outcomes, so chunks and Runs share them through
// chunkEnginesPool instead of regrowing every buffer per chunk.
type chunkEngines struct {
	sym *link.Symbol
	wav *link.Waveform
	// One reseeded RNG. fastrand's Seed builds the stdlib register
	// without walking its serial seeding chain, and its stream is the
	// stdlib's, so the per-tag reseed is cheap and exact. Handing the
	// engines the concrete *fastrand.Rand lets phy.MeasureBER and
	// channel.AWGN take their fused bodies, drawing the same stream.
	rng      *fastrand.Rand
	batch    link.FrameBatch
	deferred []deferredTag
	okFlags  []bool
	cells    []ScaleCell
}

// deferredTag is a tier-a tag whose frames are staged but not yet
// flushed: its tally waits for the flush.
type deferredTag struct {
	ap    int
	snrDB float64
}

var chunkEnginesPool = sync.Pool{New: func() interface{} { return new(chunkEngines) }}

// reseed returns the working set's RNG reseeded to seed.
func (e *chunkEngines) reseed(seed int64) *fastrand.Rand {
	if e.rng == nil {
		e.rng = fastrand.New(0)
	}
	e.rng.Seed(seed)
	return e.rng
}

// putChunkEngines drops anything staged, so no lane of an abandoned
// chunk can reach the next one, and returns the working set.
func putChunkEngines(e *chunkEngines) {
	e.batch.Reset()
	e.deferred = e.deferred[:0]
	chunkEnginesPool.Put(e)
}

// runChunk simulates tags [ci*chunkSize, min((ci+1)*chunkSize, Tags)).
// The tier-c path is allocation-free per tag (value-type RNG streams,
// closed-form outcomes); the tier-a/b heads borrow pooled engines and
// reseed a single shared RNG per tag.
//
// Tier-a tags stage their frame waveforms into a chunk-wide
// link.FrameBatch and demodulate in batched flushes. All RNG
// draws still happen per tag at stage time, in trial order — the
// stream discipline (reseed shared rng per tag, draw FramesPerTag
// frames) is unchanged, so outcomes are bit-identical to the serial
// loop. Their tally into the chunk's own cells is deferred to the
// flush, which is safe because integer sums and histogram observations
// commute; agg sees the cells once, after the last flush.
func (s *ScaleDeployment) runChunk(ci int, agg *scaleAgg) error {
	cfg := s.cfg
	lo := ci * cfg.chunkSize
	hi := lo + cfg.chunkSize
	if hi > cfg.Tags {
		hi = cfg.Tags
	}
	e := chunkEnginesPool.Get().(*chunkEngines)
	defer putChunkEngines(e)
	e.cells = append(e.cells[:0], make([]ScaleCell, cfg.APs)...) // zeroed, reuses capacity

	tally := func(a int, tier link.Tier, snrDB float64, ok int) {
		c := &e.cells[a]
		c.Tags++
		c.TierTags[tier]++
		c.FramesOK += int64(ok)
		c.FramesLost += int64(cfg.FramesPerTag - ok)
		c.SNRSumMilliDB += int64(math.Round(snrDB * 1000))
		if s.m != nil {
			s.m.snr.Observe(snrDB)
			s.m.delivery.Observe(float64(ok) / float64(cfg.FramesPerTag))
		}
	}

	flush := func() error {
		if len(e.deferred) == 0 {
			return nil
		}
		var err error
		e.okFlags, err = e.wav.FlushFrames(&e.batch, e.okFlags[:0])
		if err != nil {
			return err
		}
		for t, d := range e.deferred {
			ok := 0
			for _, good := range e.okFlags[t*cfg.FramesPerTag : (t+1)*cfg.FramesPerTag] {
				if good {
					ok++
				}
			}
			tally(d.ap, link.TierWaveform, d.snrDB, ok)
		}
		e.deferred = e.deferred[:0]
		return nil
	}

	for i := lo; i < hi; i++ {
		x, y := s.tagPos(i)
		a, snr := s.assign(x, y)
		snrDB := 10 * math.Log10(snr)
		tier := s.tiers.Pick(snrDB)
		snrRate := snr * scaleSNRScale

		ok := 0
		linkStream := streamScaleLinkBase + uint64(tier)*scaleTierStride + uint64(i)
		switch tier {
		case link.TierBudget:
			// Rate, SNR and air bits are fixed for the tag, so one
			// bracket decides every draw; the closed form runs only
			// when a draw lands inside it.
			st := par.NewStream(cfg.Seed, linkStream)
			br := s.budgetTable.At(snrRate)
			for f := 0; f < cfg.FramesPerTag; f++ {
				if br.Delivered(st.Float64()) {
					ok++
				}
			}
		case link.TierWaveform:
			if e.wav == nil {
				e.wav = link.NewWaveform()
			}
			rng := e.reseed(par.Derive(cfg.Seed, linkStream))
			for f := 0; f < cfg.FramesPerTag; f++ {
				if err := e.wav.StageFrame(&e.batch, scaleRate, snrRate, cfg.PayloadBytes, rng); err != nil {
					return err
				}
			}
			e.deferred = append(e.deferred, deferredTag{ap: a, snrDB: snrDB})
			if e.batch.Len() >= scaleFlushLanes {
				if err := flush(); err != nil {
					return err
				}
			}
			continue // tallied at the flush
		default:
			if e.sym == nil {
				e.sym = link.NewSymbol()
			}
			rng := e.reseed(par.Derive(cfg.Seed, linkStream))
			for f := 0; f < cfg.FramesPerTag; f++ {
				good, err := e.sym.FrameSuccess(scaleRate, snrRate, cfg.PayloadBytes, rng)
				if err != nil {
					return err
				}
				if good {
					ok++
				}
			}
		}

		tally(a, tier, snrDB, ok)
	}
	err := flush()
	agg.merge(e.cells) // harmless on error: a failed chunk fails Run
	return err
}
