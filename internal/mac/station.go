package mac

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/obs"
)

// Medium is the MAC's view of the radio: it answers link-quality
// questions for a tag under a given AP beam. The packet-level simulator
// implements it from the full link budget.
type Medium interface {
	// SNR returns the uplink SNR (linear, measured in the symbol-rate
	// noise bandwidth) for the tag when the AP steers beamRad and the
	// tag uses the given rate, and whether the tag can hear the query
	// at all (envelope-detector sensitivity).
	SNR(tagID uint8, beamRad float64, r Rate) (snr float64, audible bool)
	// Tags returns the IDs of every tag that exists in the environment
	// (the MAC does not get their positions — it must discover them).
	Tags() []uint8
}

// AckLossMedium is the optional Medium extension a fault injector
// implements: it decides, per frame the AP just received, whether the
// AP→tag ACK is lost on the feedback path. A lost ACK makes the tag
// retransmit a frame the AP already holds, which the ARQ loop must
// absorb as a duplicate.
type AckLossMedium interface {
	Medium
	// AckLost reports whether the ACK for the frame just delivered by
	// tagID fails to reach the tag.
	AckLost(tagID uint8) bool
}

// FrameEngine lets a station delegate per-frame delivery to a physical
// link engine instead of the analytic FramePER draw. The signature
// matches link.Engine.FrameSuccess structurally, so any link-ladder
// engine (budget, symbol, waveform) plugs in directly without mac
// importing link.
type FrameEngine interface {
	// FrameSuccess reports whether one data frame carrying
	// payloadBytes at rate r succeeds at linear SNR snr. All
	// randomness must come from rng.
	FrameSuccess(r Rate, snr float64, payloadBytes int, rng fastrand.RNG) (bool, error)
}

// StationConfig parameterizes the AP-side MAC.
type StationConfig struct {
	// Beams is the discovery codebook (radians).
	Beams []float64
	// RateTable is the adaptation ladder; DefaultRateTable if nil.
	RateTable []Rate
	// TargetPER is the adaptation target (0.01 default).
	TargetPER float64
	// ProbeRate is the robust rate used for discovery probes; the
	// lowest-goodput table entry if zero-valued.
	ProbeRate Rate
	// ContentionSlots is the slotted-ALOHA window size per discovery
	// round (8 default).
	ContentionSlots int
	// DiscoveryRounds bounds repeated contention rounds per beam (4
	// default).
	DiscoveryRounds int
	// MaxRetries is the ARQ retransmission budget per frame (3 when
	// zero; negative disables retransmissions entirely).
	MaxRetries int
	// PollPayloadBytes is the uplink payload each poll solicits (64
	// default).
	PollPayloadBytes int
	// Health tunes the per-tag health state machine (suspect/lost
	// tracking, backoff, eviction). The zero value disables it,
	// preserving the never-forget MAC exactly.
	Health HealthConfig
	// CycleBudgetS caps the uplink air time one poll cycle may spend;
	// once a cycle's polls have consumed it, remaining tags are skipped
	// (and counted) so one degraded tag cannot starve the round. Zero
	// means unlimited.
	CycleBudgetS float64
	// Obs, when non-nil with a registry attached, meters MAC activity
	// (polls, retries, contention, per-tag SNR). Nil keeps the hot path
	// allocation-free.
	Obs *obs.Handle
	// Frames, when non-nil, replaces the analytic FramePER draw in
	// Poll's data-frame ARQ loop with a real per-frame trial on the
	// given engine (discovery probes stay analytic — they only gate
	// contention). sim.InventoryConfig and net's deployment configs
	// embed this StationConfig, so the engine passes straight through
	// to every station they build. Nil (the default) preserves the
	// historical closed-form behavior exactly.
	Frames FrameEngine
}

func (c StationConfig) withDefaults() StationConfig {
	if c.RateTable == nil {
		c.RateTable = DefaultRateTable()
	}
	if c.TargetPER == 0 {
		c.TargetPER = 0.01
	}
	if c.ProbeRate.BitRate == 0 {
		best := 0
		for i, r := range c.RateTable {
			if r.Goodput() < c.RateTable[best].Goodput() {
				best = i
			}
		}
		c.ProbeRate = c.RateTable[best]
	}
	if c.ContentionSlots == 0 {
		c.ContentionSlots = 8
	}
	if c.DiscoveryRounds == 0 {
		c.DiscoveryRounds = 4
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.PollPayloadBytes == 0 {
		c.PollPayloadBytes = 64
	}
	c.Health = c.Health.withDefaults()
	return c
}

// ProbeRateOrDefault returns the configured probe rate after default
// resolution, for callers that need to account probe air time.
func (c StationConfig) ProbeRateOrDefault() Rate { return c.withDefaults().ProbeRate }

// TagRecord is the station's knowledge of one discovered tag.
type TagRecord struct {
	ID      uint8
	BeamRad float64 // beam under which the tag was found
	SNR     float64 // linear SNR measured at discovery (probe rate)

	pick pickMemo
}

// pickMemoRates is the longest rate table a tag's decision memo covers:
// the default ladder's length. Polls over a longer table run bestRate
// afresh every time.
const pickMemoRates = 8

// pickMemo is a tag's last rate decision and attempt pricing. bestRate
// and FramePER are pure, so when the medium answers a poll's ladder
// walk with the same bits as the last poll did, the decision is the
// same. The medium is still asked every question, so fault injectors,
// moving tags and the medium's query counters see every poll.
type pickMemo struct {
	snr  [pickMemoRates]uint64 // the last ladder walk's answers, in table order
	warm bool                  // snr holds a walk
	best int                   // bestRate over snr: an index, or -1

	// The last attempt's figures, keyed on its rate index and SNR bits.
	attOK      bool
	attRate    int
	attSNR     uint64
	snrDB, per float64
}

// decide returns bestRate over the medium's answers to one ladder walk,
// asking snrFor once per entry in table order as bestRate does, and
// reusing the last decision when the answers are bit-equal to the last
// walk's.
func (m *pickMemo) decide(table []Rate, targetPER float64, airBits int, snrFor func(Rate) float64) int {
	if len(table) > pickMemoRates {
		return bestRate(table, targetPER, airBits, func(i int) float64 { return snrFor(table[i]) })
	}
	same := m.warm
	for i, r := range table {
		if b := math.Float64bits(snrFor(r)); b != m.snr[i] {
			m.snr[i], same = b, false
		}
	}
	if !same {
		m.warm = true
		m.best = bestRate(table, targetPER, airBits, func(i int) float64 { return math.Float64frombits(m.snr[i]) })
	}
	return m.best
}

// attempt returns an audible attempt's SNR in dB and, when withPER is
// set, its predicted frame PER, reusing the last attempt's figures when
// the rate index and the SNR bits are unchanged. withPER is fixed for a
// station (it is whether the analytic draw is in use), so a reused PER
// was always computed.
func (m *pickMemo) attempt(idx int, r Rate, snr float64, airBits int, withPER bool) (snrDB, per float64) {
	b := math.Float64bits(snr)
	if !m.attOK || m.attRate != idx || m.attSNR != b {
		m.attOK, m.attRate, m.attSNR = true, idx, b
		m.snrDB = 10 * math.Log10(snr)
		if withPER {
			m.per = r.FramePER(snr, airBits)
		}
	}
	return m.snrDB, m.per
}

// Station is the AP-side MAC entity.
type Station struct {
	cfg       StationConfig
	medium    Medium
	ackMedium AckLossMedium // medium's ACK-loss view, nil when absent
	rng       *rand.Rand
	known     map[uint8]*TagRecord
	m         *stationMetrics // nil when uninstrumented

	// Health bookkeeping (see health.go). The health map outlives the
	// roster so rediscovery latency can be measured across eviction.
	health         map[uint8]*healthState
	healthEvents   []HealthTransition
	recoveryRounds []int
	round          int     // poll cycles begun
	cycleSpent     float64 // air time charged to the current cycle
	rosterV        int     // roster change counter

	// Stats accumulates counters across operations.
	Stats Stats
}

// stationMetrics holds the pre-resolved registry instruments; a nil
// *stationMetrics means observability is off and call sites skip the
// label plumbing entirely.
type stationMetrics struct {
	polls      *obs.CounterVec // mac_polls_total{tag,ok}
	retries    *obs.CounterVec // mac_retransmissions_total{tag}
	rates      *obs.CounterVec // mac_rate_selected_total{tag,rate}
	probes     *obs.Counter    // mac_probes_total
	slots      *obs.Counter    // mac_discovery_slots_total
	collisions *obs.Counter    // mac_collisions_total
	discovered *obs.Counter    // mac_discovered_total
	airtime    *obs.Counter    // mac_airtime_seconds_total
	pollAir    *obs.Quantile   // mac_poll_airtime_seconds (summary)
	snr        *obs.HistogramVec

	health      *obs.CounterVec // mac_health_transitions_total{tag,to}
	recovery    *obs.Histogram  // mac_recovery_rounds
	degraded    *obs.Counter    // mac_degraded_picks_total
	dups        *obs.Counter    // mac_duplicate_frames_total
	ackLosses   *obs.Counter    // mac_ack_losses_total
	budgetSkips *obs.Counter    // mac_budget_skips_total
}

func newStationMetrics(reg *obs.Registry) *stationMetrics {
	if reg == nil {
		return nil
	}
	return &stationMetrics{
		polls: reg.CounterVec("mac_polls_total",
			"Polls issued, by tag and delivery outcome.", "tag", "ok"),
		retries: reg.CounterVec("mac_retransmissions_total",
			"ARQ retransmissions, by tag.", "tag"),
		rates: reg.CounterVec("mac_rate_selected_total",
			"Link-adaptation rate selections, by tag and rate.", "tag", "rate"),
		probes: reg.Counter("mac_probes_total",
			"Discovery probes transmitted."),
		slots: reg.Counter("mac_discovery_slots_total",
			"Slotted-ALOHA contention slots elapsed during discovery."),
		collisions: reg.Counter("mac_collisions_total",
			"Discovery responses lost to slot collisions."),
		discovered: reg.Counter("mac_discovered_total",
			"Tags newly discovered."),
		airtime: reg.Counter("mac_airtime_seconds_total",
			"Uplink air time accumulated across polls."),
		pollAir: reg.Quantile("mac_poll_airtime_seconds",
			"Per-poll uplink air time including retransmissions (reservoir-sampled p50/p90/p99)."),
		snr: reg.HistogramVec("phy_snr_db",
			"Uplink SNR measured at the selected rate, by tag (dB).",
			obs.LinearBuckets(-10, 5, 14), "tag"),
		health: reg.CounterVec("mac_health_transitions_total",
			"Tag health state transitions, by tag and destination state.",
			"tag", "to"),
		recovery: reg.Histogram("mac_recovery_rounds",
			"Poll cycles between a tag's eviction and its rediscovery.",
			obs.ExponentialBuckets(1, 2, 10)),
		degraded: reg.Counter("mac_degraded_picks_total",
			"Rate selections that fell back below the PER target."),
		dups: reg.Counter("mac_duplicate_frames_total",
			"Duplicate uplink frames absorbed after ACK loss."),
		ackLosses: reg.Counter("mac_ack_losses_total",
			"AP→tag ACKs lost on the feedback path."),
		budgetSkips: reg.Counter("mac_budget_skips_total",
			"Polls skipped because the cycle airtime budget was spent."),
	}
}

// Stats counts MAC-level events.
type Stats struct {
	ProbesSent      int
	DiscoverySlots  int
	Collisions      int
	FramesDelivered int
	FramesLost      int
	Retransmissions int
	BitsDelivered   int64
	AirTimeSeconds  float64

	// Degradation and recovery accounting (fault-injected runs).
	PollErrors      int // polls of known tags that returned an error
	DegradedPicks   int // rate selections below the PER target
	AckLosses       int // AP→tag ACKs lost
	DuplicateFrames int // duplicate frames absorbed after ACK loss
	BudgetSkips     int // polls skipped: cycle airtime budget spent
	BackoffSkips    int // polls skipped: suspect tag backing off
	Evictions       int // tags declared lost and evicted
	Rediscoveries   int // evicted tags recovered by a later discovery
}

// NewStation builds a station over a medium. The rng drives contention
// and packet-error draws, keeping runs reproducible.
func NewStation(cfg StationConfig, medium Medium, rng *rand.Rand) (*Station, error) {
	if medium == nil {
		return nil, fmt.Errorf("mac: medium is required")
	}
	if rng == nil {
		return nil, fmt.Errorf("mac: rng is required")
	}
	cfg = cfg.withDefaults()
	if len(cfg.Beams) == 0 {
		return nil, fmt.Errorf("mac: at least one discovery beam is required")
	}
	s := &Station{
		cfg:    cfg,
		medium: medium,
		rng:    rng,
		known:  make(map[uint8]*TagRecord),
		health: make(map[uint8]*healthState),
		m:      newStationMetrics(cfg.Obs.Registry()),
	}
	if am, ok := medium.(AckLossMedium); ok {
		s.ackMedium = am
	}
	return s, nil
}

// Known returns the discovered tags sorted by ID.
func (s *Station) Known() []TagRecord {
	out := make([]TagRecord, 0, len(s.known))
	for _, r := range s.known {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// probeAirBits is the discovery probe response size (a TypeProbe frame
// with a 4-byte payload).
func (s *Station) probeAirBits() int {
	return frame.AirBits(4, frame.Options{Coded: s.cfg.ProbeRate.Coded})
}

// Discover sweeps the beam codebook, running slotted contention in each
// beam, and returns the number of newly found tags. Tags already known
// stay silent (the probe carries the known-ID list, as in RFID Q-style
// inventories).
func (s *Station) Discover() int {
	found := 0
	sp := s.cfg.Obs.StartSpan("beam-sweep", 0)
	defer sp.End()
	for _, beam := range s.cfg.Beams {
		for round := 0; round < s.cfg.DiscoveryRounds; round++ {
			s.Stats.ProbesSent++
			if s.m != nil {
				s.m.probes.Inc()
			}
			// Which unknown tags hear this probe and would respond?
			var responders []uint8
			var snrs []float64
			for _, id := range s.medium.Tags() {
				if _, ok := s.known[id]; ok {
					continue
				}
				snr, audible := s.medium.SNR(id, beam, s.cfg.ProbeRate)
				if !audible {
					continue
				}
				// The response itself must survive the link.
				per := s.cfg.ProbeRate.FramePER(snr, s.probeAirBits())
				if s.rng.Float64() < per {
					continue
				}
				responders = append(responders, id)
				snrs = append(snrs, snr)
			}
			if len(responders) == 0 {
				break // nothing new in this beam
			}
			// Slotted ALOHA: each responder picks a slot; collisions lose.
			slots := make(map[int][]int) // slot -> responder indices
			for i := range responders {
				slot := s.rng.Intn(s.cfg.ContentionSlots)
				slots[slot] = append(slots[slot], i)
			}
			s.Stats.DiscoverySlots += s.cfg.ContentionSlots
			if s.m != nil {
				s.m.slots.Add(float64(s.cfg.ContentionSlots))
			}
			for _, idxs := range slots {
				if len(idxs) > 1 {
					s.Stats.Collisions += len(idxs)
					if s.m != nil {
						s.m.collisions.Add(float64(len(idxs)))
					}
					continue
				}
				i := idxs[0]
				rec := &TagRecord{ID: responders[i], BeamRad: beam, SNR: snrs[i]}
				s.refineBeam(rec)
				s.adopt(rec)
				found++
				if s.m != nil {
					s.m.discovered.Inc()
				}
			}
		}
	}
	return found
}

// refineBeam performs the post-discovery beam refinement every mmWave
// link does: scan the codebook for the beam with the highest probe-rate
// SNR toward the tag. Without it, a tag first heard through a sidelobe
// would be polled on that sidelobe forever.
func (s *Station) refineBeam(rec *TagRecord) {
	for _, beam := range s.cfg.Beams {
		snr, audible := s.medium.SNR(rec.ID, beam, s.cfg.ProbeRate)
		if audible && snr > rec.SNR {
			rec.SNR = snr
			rec.BeamRad = beam
		}
	}
}

// Refine re-evaluates the best beam for a known tag from scratch — the
// beam-tracking step a mobile tag needs. Unknown IDs are ignored; a tag
// that is currently inaudible everywhere keeps its previous beam.
func (s *Station) Refine(id uint8) {
	rec, ok := s.known[id]
	if !ok {
		return
	}
	rec.SNR = 0
	s.refineBeam(rec)
}

// PollResult reports one tag poll.
type PollResult struct {
	TagID     uint8
	Rate      Rate
	Attempts  int
	Delivered bool
	Bits      int
	AirTime   float64
	// SNRdB is the uplink SNR measured on the last transmission attempt
	// at the selected rate (-inf when the tag was inaudible).
	SNRdB float64
	// Degraded marks a rate selection that could not meet the PER
	// target and fell back to the most robust rate.
	Degraded bool
	// Duplicates counts retransmissions of an already-received frame
	// the AP absorbed because its ACK was lost.
	Duplicates int
}

// pollError counts a failed poll of a known tag and returns err.
func (s *Station) pollError(id uint8, err error) (PollResult, error) {
	s.Stats.PollErrors++
	if s.m != nil {
		s.m.polls.With(obs.U8(id), "error").Inc()
	}
	return PollResult{}, err
}

// Poll solicits one uplink frame from a known tag with link adaptation
// and stop-and-wait ARQ. The air time accounts every attempt. When the
// medium can lose the AP→tag ACK (AckLossMedium), a delivered frame
// whose ACK is lost is retransmitted by the tag and absorbed here as a
// duplicate — counted, air time charged, information bits counted once.
// A poll of a known tag that fails (an invalid rate ladder, a frame
// engine error) is counted in Stats.PollErrors and under
// mac_polls_total with ok="error" before its error is returned.
func (s *Station) Poll(id uint8) (PollResult, error) {
	rec, ok := s.known[id]
	if !ok {
		return PollResult{}, fmt.Errorf("mac: tag %d not discovered", id)
	}
	// PickRate, answered from the tag's decision memo.
	table := s.cfg.RateTable
	if err := checkLadder(table, s.cfg.TargetPER); err != nil {
		return s.pollError(id, err)
	}
	snrFor := func(r Rate) float64 {
		snr, audible := s.medium.SNR(id, rec.BeamRad, r)
		if !audible {
			return 0
		}
		return snr
	}
	airBits := frame.AirBits(s.cfg.PollPayloadBytes, frame.Options{})
	best := rec.pick.decide(table, s.cfg.TargetPER, airBits, snrFor)
	degraded := best < 0
	if degraded {
		best = robustRate(table, snrFor)
	}
	rate := table[best]
	res := PollResult{TagID: id, Rate: rate, SNRdB: math.Inf(-1), Degraded: degraded}
	if degraded {
		s.Stats.DegradedPicks++
		if s.m != nil {
			s.m.degraded.Inc()
		}
	}
	airBits = frame.AirBits(s.cfg.PollPayloadBytes, frame.Options{Coded: rate.Coded})
	for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
		res.Attempts++
		res.AirTime += float64(airBits) / rate.BitRate
		snr, audible := s.medium.SNR(id, rec.BeamRad, rate)
		if !audible && s.healthEnabled() {
			// A completely silent tag (dead, browned out, deep-blocked)
			// cannot NACK, so retransmitting into the void just burns
			// air time; one probe poll suffices and the health machine
			// owns the recovery schedule.
			break
		}
		if audible {
			snrDB, per := rec.pick.attempt(best, rate, snr, airBits, s.cfg.Frames == nil)
			res.SNRdB = snrDB
			delivered := false
			if s.cfg.Frames != nil {
				good, err := s.cfg.Frames.FrameSuccess(rate, snr, s.cfg.PollPayloadBytes, s.rng)
				if err != nil {
					return s.pollError(id, fmt.Errorf("mac: frame engine: %w", err))
				}
				delivered = good
			} else {
				delivered = s.rng.Float64() >= per
			}
			if delivered {
				// Frame received. First reception delivers the payload;
				// later ones are duplicates of a frame whose ACK the
				// tag never heard.
				if !res.Delivered {
					res.Delivered = true
					res.Bits = s.cfg.PollPayloadBytes * 8
				} else {
					res.Duplicates++
					s.Stats.DuplicateFrames++
					if s.m != nil {
						s.m.dups.Inc()
					}
				}
				if s.ackMedium == nil || !s.ackMedium.AckLost(id) {
					break
				}
				s.Stats.AckLosses++
				if s.m != nil {
					s.m.ackLosses.Inc()
				}
				if attempt == s.cfg.MaxRetries {
					break // tag's retry budget is spent; it stops resending
				}
				s.Stats.Retransmissions++
				continue
			}
		}
		if attempt < s.cfg.MaxRetries {
			s.Stats.Retransmissions++
		}
	}
	if res.Delivered {
		s.Stats.FramesDelivered++
		s.Stats.BitsDelivered += int64(res.Bits)
	} else {
		s.Stats.FramesLost++
	}
	s.Stats.AirTimeSeconds += res.AirTime
	s.cycleSpent += res.AirTime
	if s.m != nil {
		tagLabel := obs.U8(id)
		s.m.polls.With(tagLabel, obs.OK(res.Delivered)).Inc()
		s.m.rates.With(tagLabel, rate.String()).Inc()
		if res.Attempts > 1 {
			s.m.retries.With(tagLabel).Add(float64(res.Attempts - 1))
		}
		s.m.airtime.Add(res.AirTime)
		s.m.pollAir.Observe(res.AirTime)
		if !math.IsInf(res.SNRdB, -1) {
			s.m.snr.With(tagLabel).Observe(res.SNRdB)
		}
	}
	s.noteOutcome(id, res.Delivered)
	return res, nil
}
