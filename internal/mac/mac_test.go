package mac

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/antenna"
	"mmtag/internal/rfmath"
)

func TestModulationDefinitions(t *testing.T) {
	cases := []struct {
		m    Modulation
		bits int
		eff  float64
	}{
		{ModOOK(), 1, 0.5},
		{ModBPSK(), 1, 1},
		{ModQPSK(), 2, 1},
		{ModPSK8(), 3, 1},
		{ModQAM16(), 4, 10.0 / 18.0},
	}
	for _, c := range cases {
		if c.m.BitsPerSymbol != c.bits {
			t.Fatalf("%s bits %d, want %d", c.m.Name, c.m.BitsPerSymbol, c.bits)
		}
		if math.Abs(c.m.Efficiency-c.eff) > 1e-12 {
			t.Fatalf("%s efficiency %g, want %g", c.m.Name, c.m.Efficiency, c.eff)
		}
		if ber := c.m.BER(rfmath.FromDB(10)); ber <= 0 || ber > 0.5 {
			t.Fatalf("%s BER %g out of range", c.m.Name, ber)
		}
	}
}

func TestRateProperties(t *testing.T) {
	r := Rate{Mod: ModQPSK(), BitRate: 50e6}
	if r.Goodput() != 50e6 || r.SymbolRate() != 25e6 {
		t.Fatal("uncoded rate arithmetic")
	}
	rc := Rate{Mod: ModQPSK(), BitRate: 50e6, Coded: true}
	if rc.Goodput() != 25e6 {
		t.Fatal("coded goodput must halve")
	}
	if r.String() != "qpsk-50M" || rc.String() != "qpsk-50M-coded" {
		t.Fatalf("names %q, %q", r.String(), rc.String())
	}
}

func TestRateBERCoding(t *testing.T) {
	r := Rate{Mod: ModBPSK(), BitRate: 10e6}
	rc := Rate{Mod: ModBPSK(), BitRate: 10e6, Coded: true}
	snr := rfmath.FromDB(7)
	if rc.BERAt(snr) >= r.BERAt(snr) {
		t.Fatal("coding must reduce predicted BER")
	}
	// Zero/negative SNR degenerates to coin flips.
	if r.BERAt(0) != 0.5 || r.BERAt(-1) != 0.5 {
		t.Fatal("non-positive SNR must return BER 0.5")
	}
}

func TestFramePERMonotoneInLength(t *testing.T) {
	r := Rate{Mod: ModQPSK(), BitRate: 20e6}
	snr := rfmath.FromDB(10)
	if r.FramePER(snr, 1000) <= r.FramePER(snr, 100) {
		t.Fatal("longer frames must have higher PER")
	}
}

func TestDefaultRateTableOrdering(t *testing.T) {
	table := DefaultRateTable()
	if len(table) < 5 {
		t.Fatal("table too small")
	}
	for i := 1; i < len(table); i++ {
		if table[i].Goodput() < table[i-1].Goodput() {
			t.Fatalf("table not ascending at %d", i)
		}
	}
	// Every entry's switching rate stays within a fast switch's reach
	// (ADRF5020 class: well beyond 100 MHz).
	for _, r := range table {
		if r.SymbolRate() > 200e6 {
			t.Fatalf("%v needs implausible switching", r)
		}
	}
}

func TestPickRateAdaptsToSNR(t *testing.T) {
	table := DefaultRateTable()
	airBits := 1000
	// High SNR: the top rate wins, not degraded.
	high, deg, err := PickRate(table, 0.01, airBits, func(r Rate) float64 { return rfmath.FromDB(30) })
	if err != nil {
		t.Fatal(err)
	}
	if high.Goodput() != table[len(table)-1].Goodput() {
		t.Fatalf("at 30 dB picked %v", high)
	}
	if deg {
		t.Fatal("30 dB pick must not be degraded")
	}
	// Low SNR: a robust low rate.
	low, _, _ := PickRate(table, 0.01, airBits, func(r Rate) float64 { return rfmath.FromDB(5) })
	if low.Goodput() >= high.Goodput() {
		t.Fatal("low SNR must pick a slower rate")
	}
	// Hopeless SNR: falls back to the most robust entry, flagged degraded.
	floor, deg, _ := PickRate(table, 0.01, airBits, func(r Rate) float64 { return rfmath.FromDB(-20) })
	if floor.Goodput() != 0.5e6 {
		t.Fatalf("fallback picked %v", floor)
	}
	if !deg {
		t.Fatal("hopeless SNR pick must be degraded")
	}
}

func TestPickRateMonotoneProperty(t *testing.T) {
	table := DefaultRateTable()
	prev := -1.0
	for snrDB := -5.0; snrDB <= 35; snrDB += 2 {
		snr := rfmath.FromDB(snrDB)
		r, _, err := PickRate(table, 0.01, 1000, func(Rate) float64 { return snr })
		if err != nil {
			t.Fatal(err)
		}
		if r.Goodput() < prev {
			t.Fatalf("goodput not monotone in SNR at %g dB", snrDB)
		}
		prev = r.Goodput()
	}
}

func TestPickRateValidation(t *testing.T) {
	if _, _, err := PickRate(nil, 0.01, 100, nil); err == nil {
		t.Fatal("empty table must error")
	}
	if _, _, err := PickRate(DefaultRateTable(), 0, 100, func(Rate) float64 { return 1 }); err == nil {
		t.Fatal("zero target must error")
	}
}

// fakeMedium is a deterministic Medium for MAC tests: each tag has a
// fixed angle and a base SNR; beam mismatch attenuates it.
type fakeMedium struct {
	tags map[uint8]fakeTag
}

type fakeTag struct {
	angle   float64
	snrDB   float64 // SNR at 10 MHz symbol rate, on beam
	audible bool
}

func (m *fakeMedium) Tags() []uint8 {
	out := make([]uint8, 0, len(m.tags))
	for id := range m.tags {
		out = append(out, id)
	}
	return out
}

func (m *fakeMedium) SNR(id uint8, beamRad float64, r Rate) (float64, bool) {
	tg, ok := m.tags[id]
	if !ok || !tg.audible {
		return 0, false
	}
	// Within 5 degrees: full SNR; otherwise deaf.
	if math.Abs(beamRad-tg.angle) > antenna.Deg(5) {
		return 0, false
	}
	// Scale SNR with noise bandwidth (symbol rate).
	snr := rfmath.FromDB(tg.snrDB) * 10e6 / r.SymbolRate()
	return snr, true
}

func fourTagMedium() *fakeMedium {
	return &fakeMedium{tags: map[uint8]fakeTag{
		1: {angle: antenna.Deg(-20), snrDB: 25, audible: true},
		2: {angle: antenna.Deg(0), snrDB: 18, audible: true},
		3: {angle: antenna.Deg(20), snrDB: 8, audible: true},
		4: {angle: antenna.Deg(40), snrDB: 25, audible: false}, // sleeping/out of range
	}}
}

func testBeams() []float64 {
	var beams []float64
	for d := -60.0; d <= 60; d += 5 {
		beams = append(beams, antenna.Deg(d))
	}
	return beams
}

func TestStationValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewStation(StationConfig{Beams: testBeams()}, nil, rng); err == nil {
		t.Fatal("nil medium must error")
	}
	if _, err := NewStation(StationConfig{Beams: testBeams()}, fourTagMedium(), nil); err == nil {
		t.Fatal("nil rng must error")
	}
	if _, err := NewStation(StationConfig{}, fourTagMedium(), rng); err == nil {
		t.Fatal("no beams must error")
	}
}

func TestDiscoveryFindsAudibleTags(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	st, err := NewStation(StationConfig{Beams: testBeams()}, fourTagMedium(), rng)
	if err != nil {
		t.Fatal(err)
	}
	found := st.Discover()
	if found != 3 {
		t.Fatalf("found %d tags, want 3", found)
	}
	known := st.Known()
	ids := []uint8{known[0].ID, known[1].ID, known[2].ID}
	if ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("known IDs %v", ids)
	}
	// The inaudible tag stays unknown.
	for _, r := range known {
		if r.ID == 4 {
			t.Fatal("tag 4 must not be discovered")
		}
	}
	// Beam records point near the tags' angles.
	if math.Abs(known[0].BeamRad-antenna.Deg(-20)) > antenna.Deg(5) {
		t.Fatalf("tag 1 beam %g", known[0].BeamRad*180/math.Pi)
	}
	// Re-discovery finds nothing new.
	if again := st.Discover(); again != 0 {
		t.Fatalf("re-discovery found %d", again)
	}
}

func TestDiscoveryResolvesCollisions(t *testing.T) {
	// Many tags in a single beam: contention rounds must still find all.
	m := &fakeMedium{tags: map[uint8]fakeTag{}}
	for id := uint8(1); id <= 10; id++ {
		m.tags[id] = fakeTag{angle: 0, snrDB: 25, audible: true}
	}
	rng := rand.New(rand.NewSource(3))
	st, _ := NewStation(StationConfig{
		Beams:           []float64{0},
		ContentionSlots: 8,
		DiscoveryRounds: 10,
	}, m, rng)
	found := st.Discover()
	if found != 10 {
		t.Fatalf("found %d of 10 colliding tags", found)
	}
	if st.Stats.Collisions == 0 {
		t.Fatal("ten tags in one beam must collide at least once")
	}
}

func TestPollAdaptsRatePerTag(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	st, _ := NewStation(StationConfig{Beams: testBeams()}, fourTagMedium(), rng)
	st.Discover()
	strong, err := st.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := st.Poll(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strong.Delivered {
		t.Fatal("strong tag poll must deliver")
	}
	if strong.Rate.Goodput() <= weak.Rate.Goodput() {
		t.Fatalf("strong tag rate %v must beat weak tag rate %v", strong.Rate, weak.Rate)
	}
	if _, err := st.Poll(42); err == nil {
		t.Fatal("polling unknown tag must error")
	}
}

// pollCycle polls every known tag once in ID order, as the simulator's
// TDMA loop does, skipping tags the health machine holds back; failed
// polls are left out of the results.
func pollCycle(s *Station) []PollResult {
	s.BeginCycle()
	var out []PollResult
	for _, rec := range s.Known() {
		if !s.ShouldPoll(rec.ID) {
			continue
		}
		if res, err := s.Poll(rec.ID); err == nil {
			out = append(out, res)
		}
	}
	return out
}

func TestPollCycleAndGoodput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	st, _ := NewStation(StationConfig{Beams: testBeams()}, fourTagMedium(), rng)
	st.Discover()
	results := pollCycle(st)
	if len(results) != 3 {
		t.Fatalf("cycle polled %d tags", len(results))
	}
	delivered := 0
	for _, r := range results {
		if r.Delivered {
			delivered++
		}
	}
	if delivered < 2 {
		t.Fatalf("only %d polls delivered", delivered)
	}
	if st.Stats.BitsDelivered <= 0 || st.Stats.AirTimeSeconds <= 0 {
		t.Fatal("goodput must be positive after deliveries")
	}
	if st.Stats.FramesDelivered != delivered {
		t.Fatal("stats mismatch")
	}
}

func TestARQRetriesOnMarginalLink(t *testing.T) {
	// A tag with SNR right at the decode edge of the only available
	// rate: ARQ must retry, and still deliver most frames eventually.
	m := &fakeMedium{tags: map[uint8]fakeTag{
		9: {angle: 0, snrDB: 6.5, audible: true},
	}}
	rng := rand.New(rand.NewSource(6))
	st, _ := NewStation(StationConfig{
		Beams:     []float64{0},
		RateTable: []Rate{{Mod: ModBPSK(), BitRate: 10e6}},
	}, m, rng)
	st.Discover()
	if len(st.Known()) != 1 {
		t.Skip("marginal tag not discovered under this seed")
	}
	for i := 0; i < 50; i++ {
		st.Poll(9)
	}
	if st.Stats.Retransmissions == 0 {
		t.Fatal("marginal link should trigger retransmissions")
	}
	if st.Stats.FramesDelivered == 0 {
		t.Fatal("ARQ should still deliver some frames")
	}
}
