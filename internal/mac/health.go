package mac

import (
	"fmt"

	"mmtag/internal/obs"
)

// Health classifies the station's confidence in a discovered tag:
// Active tags answer polls, Suspect tags have missed enough consecutive
// frames that the station re-probes them with exponential backoff, and
// Lost tags have been evicted from the roster (periodic rediscovery is
// their only way back in).
type Health int

// Health states, in degradation order.
const (
	HealthActive Health = iota
	HealthSuspect
	HealthLost
)

// String returns the state name.
func (h Health) String() string {
	switch h {
	case HealthActive:
		return "active"
	case HealthSuspect:
		return "suspect"
	case HealthLost:
		return "lost"
	default:
		return fmt.Sprintf("health-%d", int(h))
	}
}

// HealthConfig tunes the per-tag health state machine. The zero value
// disables it entirely (no transitions, no eviction), which preserves
// the historical never-forget MAC byte-for-byte; fault-injected runs
// enable it with DefaultHealthConfig.
type HealthConfig struct {
	// SuspectAfter is the consecutive undelivered polls before an
	// Active tag turns Suspect. Zero disables the whole machine.
	SuspectAfter int
	// LostAfter is the consecutive undelivered polls before a Suspect
	// tag is declared Lost and evicted (SuspectAfter+5 if zero).
	LostAfter int
	// BackoffCap bounds the exponential re-probe backoff for Suspect
	// tags, in poll cycles (8 if zero).
	BackoffCap int
}

// DefaultHealthConfig returns the recovery tuning fault-injected runs
// use: suspect after 3 straight losses, evict after 8, back off up to 8
// cycles between suspect re-probes.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{SuspectAfter: 3, LostAfter: 8, BackoffCap: 8}
}

// Enabled reports whether the machine is on.
func (c HealthConfig) Enabled() bool { return c.SuspectAfter > 0 }

func (c HealthConfig) withDefaults() HealthConfig {
	if !c.Enabled() {
		return c
	}
	if c.LostAfter <= c.SuspectAfter {
		c.LostAfter = c.SuspectAfter + 5
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 8
	}
	return c
}

// HealthTransition records one state change for tracing.
type HealthTransition struct {
	// Round is the poll cycle (BeginCycle count) of the transition.
	Round int
	// Tag is the tag that moved.
	Tag uint8
	// From and To are the states.
	From, To Health
}

// maxHealthEvents bounds the un-drained transition buffer so a station
// whose caller never drains (no tracing) cannot grow without bound.
const maxHealthEvents = 4096

// healthState is the station's per-tag recovery bookkeeping. It lives
// outside the roster so eviction does not erase the lost-at round the
// recovery-latency measurement needs.
type healthState struct {
	state     Health
	failures  int // consecutive undelivered polls
	backoff   int // current suspect re-probe backoff, cycles
	skipUntil int // next round a suspect tag may be re-probed
	lostRound int // round the tag was evicted
}

func (s *Station) healthEnabled() bool { return s.cfg.Health.Enabled() }

func (s *Station) healthOf(id uint8) *healthState {
	h := s.health[id]
	if h == nil {
		h = &healthState{}
		s.health[id] = h
	}
	return h
}

// Health returns the station's current belief about a tag. Tags never
// seen (or with the machine disabled) read Active.
func (s *Station) Health(id uint8) Health {
	if h := s.health[id]; h != nil {
		return h.state
	}
	return HealthActive
}

// transition moves a tag between health states, recording the event
// for TakeHealthEvents and the health-transition metric.
func (s *Station) transition(id uint8, h *healthState, to Health) {
	from := h.state
	if from == to {
		return
	}
	h.state = to
	if len(s.healthEvents) < maxHealthEvents {
		s.healthEvents = append(s.healthEvents,
			HealthTransition{Round: s.round, Tag: id, From: from, To: to})
	}
	if s.m != nil {
		s.m.health.With(obs.U8(id), to.String()).Inc()
	}
}

// noteOutcome feeds one poll result into the health machine: delivery
// heals, consecutive losses degrade Active → Suspect → Lost, and a
// Lost verdict evicts the tag from the roster.
func (s *Station) noteOutcome(id uint8, delivered bool) {
	if !s.healthEnabled() {
		return
	}
	h := s.healthOf(id)
	if delivered {
		h.failures = 0
		h.backoff = 0
		s.transition(id, h, HealthActive)
		return
	}
	h.failures++
	switch h.state {
	case HealthActive:
		if h.failures >= s.cfg.Health.SuspectAfter {
			s.transition(id, h, HealthSuspect)
			h.backoff = 1
			h.skipUntil = s.round + h.backoff
		}
	case HealthSuspect:
		h.backoff *= 2
		if h.backoff > s.cfg.Health.BackoffCap {
			h.backoff = s.cfg.Health.BackoffCap
		}
		h.skipUntil = s.round + h.backoff
	}
	if h.state == HealthSuspect && h.failures >= s.cfg.Health.LostAfter {
		s.transition(id, h, HealthLost)
		h.lostRound = s.round
		delete(s.known, id)
		s.rosterV++
		s.Stats.Evictions++
	}
}

// adopt installs a discovered tag into the roster. A tag returning from
// Lost records its rediscovery latency (rounds between eviction and
// now) — the recovery SLO the chaos experiments report.
func (s *Station) adopt(rec *TagRecord) {
	s.known[rec.ID] = rec
	s.rosterV++
	if !s.healthEnabled() {
		return
	}
	h := s.healthOf(rec.ID)
	if h.state == HealthLost {
		rounds := s.round - h.lostRound
		s.Stats.Rediscoveries++
		s.recoveryRounds = append(s.recoveryRounds, rounds)
		if s.m != nil {
			s.m.recovery.Observe(float64(rounds))
		}
	}
	h.failures = 0
	h.backoff = 0
	s.transition(rec.ID, h, HealthActive)
}

// BeginCycle opens a TDMA poll round: it advances the round counter the
// suspect backoff works in and resets the cycle airtime ledger the poll
// budget charges against. A caller that iterates tags (the inventory
// runner) must call it once per cycle.
func (s *Station) BeginCycle() {
	s.round++
	s.cycleSpent = 0
}

// ShouldPoll reports whether a tag deserves a poll this cycle: known,
// not backing off as Suspect, and within the cycle's airtime budget.
// Skips are counted so starvation is observable.
func (s *Station) ShouldPoll(id uint8) bool {
	if _, ok := s.known[id]; !ok {
		return false
	}
	if b := s.cfg.CycleBudgetS; b > 0 && s.cycleSpent >= b {
		s.Stats.BudgetSkips++
		if s.m != nil {
			s.m.budgetSkips.Inc()
		}
		return false
	}
	if s.healthEnabled() {
		if h := s.health[id]; h != nil && h.state == HealthSuspect && s.round < h.skipUntil {
			s.Stats.BackoffSkips++
			return false
		}
	}
	return true
}

// TakeHealthEvents drains the accumulated health transitions (oldest
// first). The runner forwards them into the trace.
func (s *Station) TakeHealthEvents() []HealthTransition {
	ev := s.healthEvents
	s.healthEvents = nil
	return ev
}

// RosterVersion increments whenever the roster changes (discovery,
// eviction, Forget) — cheap change detection for cached poll groups.
func (s *Station) RosterVersion() int { return s.rosterV }

// LostCount returns how many tags the station currently believes Lost
// (evicted, awaiting rediscovery). Drivers use it to gate rediscovery
// sweeps: a full beam sweep costs real air time, so it is only worth
// paying when something is actually missing.
func (s *Station) LostCount() int {
	n := 0
	for _, h := range s.health {
		if h.state == HealthLost {
			n++
		}
	}
	return n
}

// RecoveryRounds returns the rediscovery latencies recorded so far, in
// poll cycles from eviction to rediscovery, in occurrence order.
func (s *Station) RecoveryRounds() []int {
	return append([]int(nil), s.recoveryRounds...)
}
