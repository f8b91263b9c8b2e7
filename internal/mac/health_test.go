package mac

import (
	"math/rand"
	"testing"

	"mmtag/internal/antenna"
)

// ackLossFake wraps fakeMedium with a scripted AP→tag ACK-loss
// sequence, implementing AckLossMedium.
type ackLossFake struct {
	*fakeMedium
	losses int // lose the next N ACK queries
	asked  int
}

func (m *ackLossFake) AckLost(uint8) bool {
	m.asked++
	if m.losses > 0 {
		m.losses--
		return true
	}
	return false
}

func healthStation(t *testing.T, m Medium, cfg StationConfig) *Station {
	t.Helper()
	if cfg.Beams == nil {
		cfg.Beams = testBeams()
	}
	st, err := NewStation(cfg, m, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHealthRecoveryLifecycle walks one tag through the whole state
// machine: active → suspect (with backoff skips) → lost (evicted from
// the roster) → rediscovered, with the recovery latency recorded.
func TestHealthRecoveryLifecycle(t *testing.T) {
	m := fourTagMedium()
	st := healthStation(t, m, StationConfig{
		Health: HealthConfig{SuspectAfter: 2, LostAfter: 4, BackoffCap: 2},
	})
	if st.Discover() != 3 {
		t.Fatal("setup: expected 3 discovered tags")
	}
	if st.Health(2) != HealthActive {
		t.Fatal("fresh tag must be active")
	}

	// Silence tag 2: its polls stop delivering.
	silenced := m.tags[2]
	silenced.audible = false
	m.tags[2] = silenced

	for i := 0; i < 20 && st.Health(2) != HealthLost; i++ {
		pollCycle(st)
	}
	if st.Health(2) != HealthLost {
		t.Fatalf("tag 2 never went lost (health %v)", st.Health(2))
	}
	if st.Stats.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Stats.Evictions)
	}
	if st.Stats.BackoffSkips == 0 {
		t.Fatal("suspect phase must skip some polls")
	}
	if len(st.Known()) != 2 {
		t.Fatalf("roster still has %d tags, want 2 after eviction", len(st.Known()))
	}
	events := st.TakeHealthEvents()
	wantSeq := []Health{HealthSuspect, HealthLost}
	var seq []Health
	for _, e := range events {
		if e.Tag == 2 {
			seq = append(seq, e.To)
		}
	}
	if len(seq) != len(wantSeq) || seq[0] != wantSeq[0] || seq[1] != wantSeq[1] {
		t.Fatalf("tag 2 transitions %v, want %v", seq, wantSeq)
	}

	// The tag comes back; a rediscovery sweep must re-adopt it and
	// record the eviction-to-recovery latency.
	silenced.audible = true
	m.tags[2] = silenced
	preRound := st.round
	if st.Discover() != 1 {
		t.Fatal("rediscovery must find the returned tag")
	}
	if st.Health(2) != HealthActive {
		t.Fatal("rediscovered tag must be active again")
	}
	if st.Stats.Rediscoveries != 1 {
		t.Fatalf("Rediscoveries = %d, want 1", st.Stats.Rediscoveries)
	}
	rounds := st.RecoveryRounds()
	if len(rounds) != 1 || rounds[0] < 0 || rounds[0] > preRound {
		t.Fatalf("recovery rounds %v out of range [0,%d]", rounds, preRound)
	}
	// And it polls normally afterwards.
	res, err := st.Poll(2)
	if err != nil || !res.Delivered {
		t.Fatalf("post-recovery poll = (%+v, %v)", res, err)
	}
}

// TestFaultInaudiblePollSingleProbe: with the health machine on, a
// silent tag costs one probe attempt instead of the full ARQ budget —
// the starvation fix that keeps degraded rounds short. With the machine
// off, the historical retry-to-exhaustion behavior is preserved.
func TestFaultInaudiblePollSingleProbe(t *testing.T) {
	m := fourTagMedium()
	st := healthStation(t, m, StationConfig{Health: DefaultHealthConfig()})
	st.Discover()
	dead := m.tags[1]
	dead.audible = false
	m.tags[1] = dead
	res, err := st.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered || res.Attempts != 1 {
		t.Fatalf("silent poll = %+v, want 1 undelivered attempt", res)
	}

	legacy := healthStation(t, m, StationConfig{}) // health disabled
	// Tag 1 is already silent; adopt it manually so Poll reaches ARQ.
	legacy.adopt(&TagRecord{ID: 1, BeamRad: antenna.Deg(-20)})
	res, err = legacy.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 4 { // MaxRetries default 3 → 4 attempts
		t.Fatalf("legacy silent poll attempts = %d, want 4", res.Attempts)
	}
}

// TestFaultAckLossDuplicates: a delivered frame whose ACK is lost is
// retransmitted and absorbed as a duplicate — bits counted once, every
// loss and duplicate counted.
func TestFaultAckLossDuplicates(t *testing.T) {
	m := &ackLossFake{fakeMedium: fourTagMedium(), losses: 2}
	st := healthStation(t, m, StationConfig{})
	st.Discover()
	res, err := st.Poll(1) // strong tag: every attempt decodes
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("strong tag must deliver")
	}
	if res.Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want 2 (two lost ACKs)", res.Duplicates)
	}
	if res.Bits != 64*8 {
		t.Fatalf("Bits = %d, want one payload (%d)", res.Bits, 64*8)
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (first + two dup retransmissions)", res.Attempts)
	}
	if st.Stats.AckLosses != 2 || st.Stats.DuplicateFrames != 2 {
		t.Fatalf("stats AckLosses=%d DuplicateFrames=%d, want 2/2",
			st.Stats.AckLosses, st.Stats.DuplicateFrames)
	}
	if st.Stats.BitsDelivered != 64*8 {
		t.Fatalf("BitsDelivered = %d: duplicates must not double-count", st.Stats.BitsDelivered)
	}

	// A tag that loses every ACK stops when the retry budget is spent.
	m2 := &ackLossFake{fakeMedium: fourTagMedium(), losses: 1 << 20}
	st2 := healthStation(t, m2, StationConfig{})
	st2.Discover()
	res, err = st2.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 4 || !res.Delivered {
		t.Fatalf("all-ACKs-lost poll = %+v, want 4 attempts, delivered", res)
	}
}

// TestFaultCycleBudgetSkips: once a cycle's polls consume the airtime
// budget, the remaining tags are skipped and counted.
func TestFaultCycleBudgetSkips(t *testing.T) {
	st := healthStation(t, fourTagMedium(), StationConfig{CycleBudgetS: 1e-9})
	st.Discover() // 3 tags
	results := pollCycle(st)
	if len(results) != 1 {
		t.Fatalf("budgeted cycle polled %d tags, want 1", len(results))
	}
	if st.Stats.BudgetSkips != 2 {
		t.Fatalf("BudgetSkips = %d, want 2", st.Stats.BudgetSkips)
	}
	// The next cycle resets the ledger: its first tag polls again.
	if got := len(pollCycle(st)); got != 1 {
		t.Fatalf("second budgeted cycle polled %d tags, want 1", got)
	}
}

// TestFaultDegradedRatePick: a tag audible at hopeless SNR forces the
// fallback pick, flagged Degraded and counted.
func TestFaultDegradedRatePick(t *testing.T) {
	m := &fakeMedium{tags: map[uint8]fakeTag{
		7: {angle: 0, snrDB: -25, audible: true},
	}}
	st := healthStation(t, m, StationConfig{Beams: []float64{0}})
	st.adopt(&TagRecord{ID: 7, BeamRad: 0}) // too weak to discover; force-adopt
	res, err := st.Poll(7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("hopeless-SNR poll must be flagged degraded")
	}
	if st.Stats.DegradedPicks != 1 {
		t.Fatalf("DegradedPicks = %d, want 1", st.Stats.DegradedPicks)
	}
	if res.Rate.Goodput() != 0.5e6 {
		t.Fatalf("degraded pick chose %v, want the most robust rate", res.Rate)
	}
}

// TestHealthDisabledNeverEvicts pins backward compatibility: with the
// zero HealthConfig, consecutive failures change nothing.
func TestHealthDisabledNeverEvicts(t *testing.T) {
	m := fourTagMedium()
	st := healthStation(t, m, StationConfig{})
	st.Discover()
	gone := m.tags[3]
	gone.audible = false
	m.tags[3] = gone
	for i := 0; i < 30; i++ {
		pollCycle(st)
	}
	if len(st.Known()) != 3 {
		t.Fatalf("disabled health evicted: roster %d", len(st.Known()))
	}
	if st.Stats.Evictions != 0 || st.Stats.BackoffSkips != 0 {
		t.Fatalf("disabled health counted evictions=%d backoffSkips=%d",
			st.Stats.Evictions, st.Stats.BackoffSkips)
	}
}
