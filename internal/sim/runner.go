// Package sim ties the mmTag pieces into a running network: an
// environment of placed tags around an access point, a mac.Medium
// implementation backed by the full link budget, and inventory/streaming
// scenario runners, advanced by a forward-only simulated clock, used by
// the examples and the evaluation harness.
//
// DESIGN.md: section 6 (simulation methodology) and section 3 (module
// inventory); section 7's deployment layer runs one of these per AP cell.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"mmtag/internal/fault"
	"mmtag/internal/mac"
	"mmtag/internal/obs"
	"mmtag/internal/par"
	"mmtag/internal/tag"
	"mmtag/internal/trace"
)

// InventoryConfig parameterizes an inventory scenario run.
type InventoryConfig struct {
	// SectorRad is the discovery sector half-angle (60° default).
	SectorRad float64
	// Duration is how long (simulated seconds) to keep polling after
	// discovery (1 s default).
	Duration float64
	// Station tunes the MAC; beams are filled from the codebook.
	Station mac.StationConfig
	// SDM enables space-division multiplexing: tags in beam-separated
	// groups share slots.
	SDM bool
	// SDMChains bounds how many concurrent beams the AP can form
	// (RF-chain count, 4 by default).
	SDMChains int
	// Seed drives all randomness.
	Seed int64
	// Faults, when non-nil and non-empty, wraps the network in a
	// deterministic fault injector (internal/fault) and enables the
	// MAC's graceful-degradation machinery: health tracking with
	// eviction (DefaultHealthConfig unless Station.Health is set) and
	// periodic rediscovery. Fault randomness derives from Seed.
	Faults *fault.Plan
	// RediscoverEvery is the number of poll cycles between rediscovery
	// sweeps on faulted runs (8 default; only used when Faults is set).
	RediscoverEvery int
	// Trace, when non-nil, receives structured events (discoveries,
	// polls, rate changes) for offline analysis.
	Trace *trace.Recorder
	// Obs, when non-nil, meters the run (counters, SNR histograms,
	// stage spans) into the handle's registry and span tracker; the
	// final registry snapshot lands on InventoryReport.Metrics. A nil
	// handle keeps the run allocation-free.
	Obs *obs.Handle
	// Pool shards multi-replicate sweeps (RunSweep) across workers. A
	// single RunInventory is one serial scenario and ignores it.
	Pool *par.Pool
}

// InventoryReport summarizes an inventory run.
type InventoryReport struct {
	Discovered     int
	TotalTags      int
	DiscoveryTime  float64
	PollCycles     int
	FramesOK       int
	FramesLost     int
	GoodputBps     float64
	SDMGroups      int
	MACStats       mac.Stats
	EnergyPerTagJ  map[uint8]float64
	EnergyPerBitJ  float64
	totalBits      int64
	totalTagEnergy float64
	// Metrics is the run's final metrics snapshot, present when the run
	// was configured with an observability handle.
	Metrics *obs.Snapshot
	// Recovery reports the fault/degradation SLOs; nil on unfaulted
	// runs.
	Recovery *RecoveryReport
	// TagHealth is the station's final belief about every placed tag,
	// present when the health state machine ran (faulted runs, or an
	// explicit Station.Health config). Multi-AP drivers use it to decide
	// health-triggered handoffs.
	TagHealth map[uint8]mac.Health
}

// RecoveryReport summarizes how the MAC degraded and recovered under an
// injected fault plan.
type RecoveryReport struct {
	// TagsDead is how many tags died permanently during the run.
	TagsDead int
	// Evictions and Rediscoveries count roster churn: tags declared
	// lost, and lost tags later recovered by a rediscovery sweep.
	Evictions     int
	Rediscoveries int
	// MeanRecoveryCycles and MaxRecoveryCycles summarize rediscovery
	// latency: poll cycles between a tag's eviction and its recovery.
	MeanRecoveryCycles float64
	MaxRecoveryCycles  int
	// DeliveryRatio is FramesOK / (FramesOK + FramesLost).
	DeliveryRatio float64
	// Degradation counters mirrored from mac.Stats.
	DegradedPicks   int
	AckLosses       int
	DuplicateFrames int
	BudgetSkips     int
	BackoffSkips    int
	// Faults holds the injector's transition counters.
	Faults fault.Stats
}

// runnerMetrics pre-resolves the run-level instruments; nil when off.
type runnerMetrics struct {
	frames       *obs.CounterVec // sim_frames_total{ok}
	cycles       *obs.Counter    // sim_poll_cycles_total
	goodput      *obs.Gauge      // sim_goodput_bps
	discovered   *obs.Gauge      // sim_discovered_tags
	totalTags    *obs.Gauge      // sim_total_tags
	sdmGroups    *obs.Gauge      // sim_sdm_groups
	discTime     *obs.Gauge      // sim_discovery_seconds
	simTime      *obs.Gauge      // sim_time_seconds
	energyPerBit *obs.Gauge      // sim_energy_per_bit_joules
	// tagEnergy and discoverSNR are streaming summaries, not per-tag
	// labeled families: a deployment-scale run observes each tag once
	// into O(1) state instead of materializing one child per tag.
	tagEnergy   *obs.Quantile  // tag_energy_joules (summary)
	discoverSNR *obs.Histogram // mac_discovery_snr_db
}

func newRunnerMetrics(reg *obs.Registry) *runnerMetrics {
	if reg == nil {
		return nil
	}
	return &runnerMetrics{
		frames: reg.CounterVec("sim_frames_total",
			"Uplink frames by delivery outcome.", "ok"),
		cycles: reg.Counter("sim_poll_cycles_total",
			"TDMA/SDM poll cycles completed."),
		goodput: reg.Gauge("sim_goodput_bps",
			"Aggregate goodput of the poll phase."),
		discovered: reg.Gauge("sim_discovered_tags",
			"Tags discovered by the beam sweep."),
		totalTags: reg.Gauge("sim_total_tags",
			"Tags placed in the environment."),
		sdmGroups: reg.Gauge("sim_sdm_groups",
			"Space-division multiplexing groups formed."),
		discTime: reg.Gauge("sim_discovery_seconds",
			"Simulated time the discovery phase took."),
		simTime: reg.Gauge("sim_time_seconds",
			"Current simulated time."),
		energyPerBit: reg.Gauge("sim_energy_per_bit_joules",
			"Backscatter energy per delivered bit."),
		tagEnergy: reg.Quantile("tag_energy_joules",
			"Per-tag energy consumed during the run (reservoir-sampled p50/p90/p99)."),
		discoverSNR: reg.Histogram("mac_discovery_snr_db",
			"SNR measured at discovery (dB).",
			obs.LinearBuckets(-10, 5, 14)),
	}
}

// clock is a run's simulated time in seconds. It only moves forward,
// and mirrors itself into the sim_time_seconds gauge (nil-safe).
type clock struct {
	now   float64
	gauge *obs.Gauge
}

// Now returns the current simulated time.
func (c *clock) Now() float64 { return c.now }

// RunUntil advances the clock to t; an earlier t leaves it in place.
func (c *clock) RunUntil(t float64) {
	if c.now < t {
		c.now = t
	}
	c.gauge.Set(c.now)
}

// RunInventory executes the full mmTag network scenario: beam-swept
// discovery followed by TDMA polling (optionally SDM-grouped) for the
// configured duration. Tag energy meters advance with their air time.
func RunInventory(n *Network, cfg InventoryConfig) (*InventoryReport, error) {
	if n == nil {
		return nil, fmt.Errorf("sim: network is required")
	}
	if cfg.SectorRad == 0 {
		cfg.SectorRad = Deg(60)
	}
	if cfg.Duration == 0 {
		cfg.Duration = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	stCfg := cfg.Station
	stCfg.Beams = n.Codebook(cfg.SectorRad)
	if stCfg.Obs == nil {
		stCfg.Obs = cfg.Obs
	}

	clk := &clock{}

	// Fault plan: wrap the network so the MAC sees the faulted radio,
	// and arm the degradation machinery (health tracking + rediscovery).
	var medium mac.Medium = n
	var inj *fault.Injector
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		var err error
		inj, err = fault.NewInjector(*cfg.Faults, cfg.Seed, n)
		if err != nil {
			return nil, err
		}
		inj.SetClock(clk.Now)
		if tr := cfg.Trace; tr != nil {
			inj.OnEvent(func(e fault.Event) {
				tr.Emit(trace.Event{
					T:      e.T,
					Kind:   trace.KindFault,
					Tag:    e.Tag,
					Detail: e.Kind + " " + e.Detail,
				})
			})
		}
		inj.Instrument(cfg.Obs.Registry())
		medium = inj
		if !stCfg.Health.Enabled() {
			stCfg.Health = mac.DefaultHealthConfig()
		}
		if cfg.RediscoverEvery == 0 {
			cfg.RediscoverEvery = 8
		}
	}

	station, err := mac.NewStation(stCfg, medium, rng)
	if err != nil {
		return nil, err
	}

	m := newRunnerMetrics(cfg.Obs.Registry())
	if m != nil {
		clk.gauge = m.simTime
		n.Instrument(cfg.Obs)
		cfg.Obs.Spans().SetClock(clk.Now)
	}
	spRun := cfg.Obs.StartSpan("inventory-run", 0)
	rep := &InventoryReport{
		TotalTags:     n.TagCount(),
		EnergyPerTagJ: make(map[uint8]float64),
	}

	// Wake every tag into listen mode (the AP's carrier is on).
	for _, id := range n.Tags() {
		p, _ := n.Placement(id)
		if err := p.Device.SetState(tag.Listen); err != nil {
			return nil, err
		}
	}

	// Discovery phase: each probe round costs a probe + contention
	// window of slot times at the probe rate.
	spDiscovery := cfg.Obs.StartSpan("discovery", 0)
	rep.Discovered = station.Discover()
	for _, rec := range station.Known() {
		if cfg.Trace != nil {
			cfg.Trace.Emit(trace.Event{
				T:      clk.Now(),
				Kind:   trace.KindDiscover,
				Tag:    rec.ID,
				Detail: fmt.Sprintf("beam %.1fdeg snr %.1fdB", rec.BeamRad*180/math.Pi, 10*log10(rec.SNR)),
			})
		}
		if m != nil {
			m.discoverSNR.Observe(10 * log10(rec.SNR))
		}
	}
	probeBits := 56 + 6*8*2 // header + short probe exchange, approximate
	slotTime := float64(probeBits) / stCfg.ProbeRateOrDefault().BitRate
	discoveryTime := float64(station.Stats.DiscoverySlots+station.Stats.ProbesSent) * slotTime
	clk.RunUntil(discoveryTime)
	rep.DiscoveryTime = discoveryTime
	spDiscovery.End()
	if m != nil {
		m.discovered.Set(float64(rep.Discovered))
		m.totalTags.Set(float64(rep.TotalTags))
		m.discTime.Set(discoveryTime)
	}

	// Listen-mode energy during discovery.
	for _, id := range n.Tags() {
		p, _ := n.Placement(id)
		p.Device.Advance(discoveryTime, 0)
	}

	// Poll phase.
	computeGroups := func() [][]uint8 {
		known := station.Known()
		groups := [][]uint8{}
		if cfg.SDM {
			chains := cfg.SDMChains
			if chains <= 0 {
				chains = 4
			}
			ids := make([]uint8, len(known))
			for i, k := range known {
				ids[i] = k.ID
			}
			for _, g := range n.SDMGroups(ids, n.BeamSeparation()) {
				// An AP with k RF chains serves at most k beams per slot.
				for len(g) > chains {
					groups = append(groups, g[:chains])
					g = g[chains:]
				}
				groups = append(groups, g)
			}
		} else {
			for _, k := range known {
				groups = append(groups, []uint8{k.ID})
			}
		}
		return groups
	}
	groups := computeGroups()
	rep.SDMGroups = len(groups)
	rosterV := station.RosterVersion()

	deadline := clk.Now() + cfg.Duration
	spPoll := cfg.Obs.StartSpan("poll-phase", 0)
	var lastRate map[uint8]string // only written under the Trace gate
	if cfg.Trace != nil {
		lastRate = make(map[uint8]string)
	}
	// On faulted runs the roster shrinks (eviction) and regrows
	// (rediscovery), so the loop keeps running through an empty roster
	// until the deadline; the idle guard below guarantees time progress.
	for clk.Now() < deadline && (len(groups) > 0 || inj != nil) {
		rep.PollCycles++
		if m != nil {
			m.cycles.Inc()
		}
		station.BeginCycle()
		cycleStart := clk.Now()
		for _, group := range groups {
			// Tags in one group transmit concurrently on separate beams;
			// the slot lasts as long as the slowest member.
			slotDur := 0.0
			for _, id := range group {
				if !station.ShouldPoll(id) {
					continue
				}
				res, err := station.Poll(id)
				if err != nil {
					continue
				}
				if cfg.Trace != nil {
					cfg.Trace.Emit(trace.Event{
						T:      clk.Now(),
						Kind:   trace.KindPoll,
						Tag:    id,
						Detail: res.Rate.String(),
						OK:     res.Delivered,
					})
					// Rate-change events make adaptation visible to the
					// trace analyzer without diffing every poll line.
					rate := res.Rate.String()
					if prev, ok := lastRate[id]; ok && prev != rate {
						cfg.Trace.Emit(trace.Event{
							T:      clk.Now(),
							Kind:   trace.KindRateChange,
							Tag:    id,
							Detail: prev + " -> " + rate,
						})
					}
					lastRate[id] = rate
				}
				if res.Delivered {
					rep.FramesOK++
					rep.totalBits += int64(res.Bits)
				} else {
					rep.FramesLost++
				}
				if m != nil {
					m.frames.With(obs.OK(res.Delivered)).Inc()
				}
				// Tag energy: the device backscatters for its air time.
				p, _ := n.Placement(id)
				if err := p.Device.SetState(tag.Backscatter); err == nil {
					p.Device.Advance(res.AirTime, res.Rate.SymbolRate())
					p.Device.SetState(tag.Listen)
				}
				rep.EnergyPerTagJ[id] = p.Device.EnergyJ()
				if res.AirTime > slotDur {
					slotDur = res.AirTime
				}
			}
			clk.RunUntil(clk.Now() + slotDur)
			if clk.Now() >= deadline {
				break
			}
		}
		if inj != nil {
			// Health transitions become trace events.
			for _, ht := range station.TakeHealthEvents() {
				if cfg.Trace != nil {
					cfg.Trace.Emit(trace.Event{
						T:      clk.Now(),
						Kind:   trace.KindHealth,
						Tag:    ht.Tag,
						Detail: ht.From.String() + " -> " + ht.To.String(),
					})
				}
			}
			// Periodic rediscovery sweeps recover evicted tags; their
			// probe/contention air time is charged to the run. A sweep
			// costs a full beam scan, so it only runs while tags are
			// actually missing.
			if cfg.RediscoverEvery > 0 && rep.PollCycles%cfg.RediscoverEvery == 0 &&
				station.LostCount() > 0 && clk.Now() < deadline {
				preSlots := station.Stats.DiscoverySlots + station.Stats.ProbesSent
				station.Discover()
				extra := float64(station.Stats.DiscoverySlots+station.Stats.ProbesSent-preSlots) * slotTime
				clk.RunUntil(clk.Now() + extra)
			}
			if v := station.RosterVersion(); v != rosterV {
				rosterV = v
				groups = computeGroups()
				if len(groups) > rep.SDMGroups {
					rep.SDMGroups = len(groups)
				}
			}
		}
		// Idle cycle (roster empty, everyone backing off, or every poll
		// failed): advance one probe slot so the loop always makes time
		// progress.
		if clk.Now() == cycleStart {
			clk.RunUntil(cycleStart + slotTime)
		}
	}
	spPoll.End()

	elapsed := clk.Now() - discoveryTime
	if elapsed > 0 {
		rep.GoodputBps = float64(rep.totalBits) / elapsed
	}
	for _, id := range n.Tags() {
		p, _ := n.Placement(id)
		rep.totalTagEnergy += p.Device.EnergyJ()
	}
	if rep.totalBits > 0 {
		// Energy per delivered bit counts only backscatter-phase energy,
		// read back from the per-device meters.
		var backscatterE float64
		for _, id := range n.Tags() {
			p, _ := n.Placement(id)
			listenE := p.Device.Power().ListenPowerW() * p.Device.TimeIn(tag.Listen)
			sleepE := p.Device.Power().SleepPowerW() * p.Device.TimeIn(tag.Sleep)
			if e := p.Device.EnergyJ() - listenE - sleepE; e > 0 {
				backscatterE += e
			}
		}
		rep.EnergyPerBitJ = backscatterE / float64(rep.totalBits)
	}
	rep.MACStats = station.Stats
	if stCfg.Health.Enabled() {
		rep.TagHealth = make(map[uint8]mac.Health, n.TagCount())
		for _, id := range n.Tags() {
			rep.TagHealth[id] = station.Health(id)
		}
	}
	if inj != nil {
		st := station.Stats
		rr := &RecoveryReport{
			TagsDead:        len(inj.DeadBy(clk.Now())),
			Evictions:       st.Evictions,
			Rediscoveries:   st.Rediscoveries,
			DegradedPicks:   st.DegradedPicks,
			AckLosses:       st.AckLosses,
			DuplicateFrames: st.DuplicateFrames,
			BudgetSkips:     st.BudgetSkips,
			BackoffSkips:    st.BackoffSkips,
			Faults:          inj.Stats(),
		}
		if total := rep.FramesOK + rep.FramesLost; total > 0 {
			rr.DeliveryRatio = float64(rep.FramesOK) / float64(total)
		}
		if rounds := station.RecoveryRounds(); len(rounds) > 0 {
			sum := 0
			for _, r := range rounds {
				sum += r
				if r > rr.MaxRecoveryCycles {
					rr.MaxRecoveryCycles = r
				}
			}
			rr.MeanRecoveryCycles = float64(sum) / float64(len(rounds))
		}
		rep.Recovery = rr
	}
	spRun.End()
	if m != nil {
		m.goodput.Set(rep.GoodputBps)
		m.sdmGroups.Set(float64(rep.SDMGroups))
		m.energyPerBit.Set(rep.EnergyPerBitJ)
		// Ascending-ID iteration keeps the summary's reservoir and sum
		// independent of map iteration order.
		for id := 0; id < 256; id++ {
			if e, ok := rep.EnergyPerTagJ[uint8(id)]; ok {
				m.tagEnergy.Observe(e)
			}
		}
		rep.Metrics = cfg.Obs.Registry().Snapshot()
	}
	return rep, nil
}

// log10 tolerates zero for trace annotations.
func log10(x float64) float64 {
	if x <= 0 {
		return -99
	}
	return math.Log10(x)
}
