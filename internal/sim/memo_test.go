package sim

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/ap"
	"mmtag/internal/mac"
	"mmtag/internal/obs"
	"mmtag/internal/vanatta"
)

// netSpec is everything a Network is built from, so a test can build a
// cold-memo twin of a long-lived network at any point in its life.
type netSpec struct {
	places []Placement
	interf []Interferer
}

func (s *netSpec) build(t *testing.T) *Network {
	t.Helper()
	a, err := ap.New(ap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.places {
		if err := n.AddTag(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range s.interf {
		if err := n.AddInterferer(i); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestNetworkMemoMatchesColdQueries pins the query memo to the
// definition: a long-lived Network, queried in a seeded interleaved
// order over every codebook beam, every rate of the default ladder and
// every tag, answers each query with the bits a freshly built twin
// gives on its first (cold-memo) query, and leaves the AP steered as
// the twin's query does. It re-checks after each change the memo must
// see: a placement mutated in place (as RunMobile does), a new
// interferer and a new tag. Repeated ladder walks, the order PickRate
// asks in, interleave with an in-place change to each single placement
// field, an interferer, and the rate pairs that share a symbol rate and
// efficiency but not an alphabet. At the end the live network's meters
// must count every query and every budget evaluation a cold network
// would have made, hits included.
func TestNetworkMemoMatchesColdQueries(t *testing.T) {
	spec := &netSpec{
		places: []Placement{
			{Device: newModTag(t, 1, 8, vanatta.OOK()), DistanceM: 2, AzimuthRad: Deg(10)},
			{Device: newModTag(t, 2, 16, vanatta.QPSK()), DistanceM: 4, AzimuthRad: Deg(-25), OrientationRad: Deg(20)},
			{Device: newModTag(t, 3, 8, vanatta.BPSK()), DistanceM: 3, AzimuthRad: Deg(40), OrientationRad: Deg(-35), ExtraLossDB: 3},
			{Device: newModTag(t, 4, 16, vanatta.QAM16()), DistanceM: 1.5, AzimuthRad: Deg(-5), OrientationRad: Deg(5)},
		},
		interf: []Interferer{
			{AzimuthRad: Deg(30), DistanceM: 12, EIRPW: 1e-3},
			{AzimuthRad: Deg(-50), DistanceM: 8, EIRPW: 5e-4},
		},
	}
	live := spec.build(t)
	live.Instrument(obs.NewHandle(obs.NewRegistry(), nil))
	beams := live.Codebook(Deg(60))
	rates := mac.DefaultRateTable()
	rng := rand.New(rand.NewSource(7))

	queries, audible := 0, 0
	same := func(stage string, id uint8, beam float64, r mac.Rate) (float64, bool) {
		t.Helper()
		got, gotOK := live.SNR(id, beam, r)
		cold := spec.build(t)
		unsteered := math.NaN()
		cold.AP.Steer(unsteered)
		want, wantOK := cold.SNR(id, beam, r)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: tag %d beam %g rate %s: memo answered (%v, %v), cold network (%v, %v)",
				stage, id, beam, r, got, gotOK, want, wantOK)
		}
		if steer := cold.AP.Array().Steering(); !math.IsNaN(steer) && live.AP.Array().Steering() != steer {
			t.Fatalf("%s: tag %d beam %g rate %s: cold query steered the AP to %g, memo left it at %g",
				stage, id, beam, r, steer, live.AP.Array().Steering())
		}
		queries++
		if gotOK {
			audible++
		}
		return got, gotOK
	}
	type query struct {
		id   uint8
		beam float64
		r    mac.Rate
	}
	sweep := func(stage string) {
		t.Helper()
		var qs []query
		for _, p := range spec.places {
			for _, b := range beams {
				for _, r := range rates {
					qs = append(qs, query{p.Device.ID(), b, r})
				}
			}
		}
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		audible := 0
		for _, q := range qs {
			if _, ok := same(stage, q.id, q.beam, q.r); ok {
				audible++
			}
		}
		if audible < len(qs)/10 {
			t.Fatalf("%s: only %d of %d queries audible; the check is vacuous", stage, audible, len(qs))
		}
	}

	sweep("fresh")

	// Mutate tag 2 in place right after querying it, then ask the same
	// question again first: a memo keyed on tag ID would still hold the
	// old azimuth and orientation.
	beam, rate := beams[len(beams)/3], rates[4]
	same("before move", 2, beam, rate)
	p, ok := live.Placement(2)
	if !ok {
		t.Fatal("tag 2 not placed")
	}
	p.AzimuthRad, p.OrientationRad = Deg(-18), Deg(-12)
	p.DistanceM, p.ExtraLossDB = 3.25, 7
	spec.places[1] = *p
	same("after move", 2, beam, rate)
	sweep("after move")

	i := Interferer{AzimuthRad: Deg(-20), DistanceM: 6, EIRPW: 2e-3}
	if err := live.AddInterferer(i); err != nil {
		t.Fatal(err)
	}
	spec.interf = append(spec.interf, i)
	sweep("after AddInterferer")

	np := Placement{Device: newModTag(t, 5, 8, vanatta.QPSK()), DistanceM: 2.5, AzimuthRad: Deg(-18), OrientationRad: Deg(-12)}
	if err := live.AddTag(np); err != nil {
		t.Fatal(err)
	}
	spec.places = append(spec.places, np)
	sweep("after AddTag")

	// Ladder walks on every tag, warm after the first, with one change
	// between rounds that each tag's memo must see.
	walk := func(stage string) {
		t.Helper()
		for round := 0; round < 3; round++ {
			for _, p := range spec.places {
				for _, r := range rates {
					same(stage, p.Device.ID(), beam, r)
				}
			}
		}
	}
	walk("ladder")
	for _, step := range []struct {
		name string
		set  func(p *Placement)
	}{
		{"DistanceM", func(p *Placement) { p.DistanceM *= 1.5 }},
		{"AzimuthRad", func(p *Placement) { p.AzimuthRad += Deg(4) }},
		{"OrientationRad", func(p *Placement) { p.OrientationRad -= Deg(9) }},
		{"ExtraLossDB", func(p *Placement) { p.ExtraLossDB += 6 }},
		{"Device", func(p *Placement) {
			p.Device = newModTag(t, p.Device.ID(), 16, vanatta.QAM16())
		}},
	} {
		for i := range spec.places {
			p, _ := live.Placement(spec.places[i].Device.ID())
			step.set(p)
			spec.places[i] = *p
		}
		walk("ladder after " + step.name)
	}
	i = Interferer{AzimuthRad: Deg(8), DistanceM: 5, EIRPW: 4e-3}
	if err := live.AddInterferer(i); err != nil {
		t.Fatal(err)
	}
	spec.interf = append(spec.interf, i)
	walk("ladder after AddInterferer")

	// Rate pairs a memo could confuse. bpsk-10M/qpsk-20M and
	// qpsk-50M/16qam-100M share a symbol rate. The next two pairs share
	// qpsk-20M's bit rate and efficiency and differ only in the
	// alphabet's name or its bits per symbol; a tag may produce one of
	// a pair but not the other. The last differs only in efficiency.
	p, _ = live.Placement(2)
	p.Device = newModTag(t, 2, 16, vanatta.QPSK())
	p.DistanceM, p.AzimuthRad, p.ExtraLossDB = 1.5, beam, 0
	spec.places[1] = *p
	renamed, narrowed, brighter := rates[4], rates[4], rates[1]
	renamed.Mod.Name = "8psk"
	narrowed.Mod.BitsPerSymbol = 1
	brighter.Mod.Efficiency = 1
	pairs := [][2]mac.Rate{{rates[3], rates[4]}, {rates[5], rates[7]}, {rates[4], renamed}, {rates[4], narrowed}, {rates[1], brighter}}
	differ := make([]bool, len(pairs))
	for round := 0; round < 3; round++ {
		for k, pair := range pairs {
			for _, p := range spec.places {
				a, _ := same("colliding pair", p.Device.ID(), beam, pair[0])
				b, _ := same("colliding pair", p.Device.ID(), beam, pair[1])
				differ[k] = differ[k] || a != b
			}
		}
	}
	for k, d := range differ {
		if !d {
			t.Fatalf("every tag answers %s and %s alike; the check is vacuous", pairs[k][0], pairs[k][1])
		}
	}

	if got := live.snrQueries.Value(); got != float64(queries) {
		t.Errorf("sim_snr_queries_total = %v, want %d", got, queries)
	}
	if got := live.linkObs.Evals.Value(); got != float64(audible) {
		t.Errorf("channel_budget_evals_total = %v, want one per audible answer (%d)", got, audible)
	}
}

// TestNetworkSNRZeroAlloc guards the MAC's hot loop: once warm, an
// audible SNR query allocates nothing.
func TestNetworkSNRZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := newNetwork(t)
	if err := n.AddTag(Placement{Device: newTag(t, 1, 8), DistanceM: 2, AzimuthRad: Deg(10)}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddInterferer(Interferer{AzimuthRad: Deg(30), DistanceM: 12, EIRPW: 1e-3}); err != nil {
		t.Fatal(err)
	}
	r := mac.Rate{Mod: mac.ModOOK(), BitRate: 2e6}
	if _, ok := n.SNR(1, Deg(10), r); !ok {
		t.Fatal("tag 1 inaudible")
	}
	if allocs := testing.AllocsPerRun(100, func() { n.SNR(1, Deg(10), r) }); allocs != 0 {
		t.Fatalf("warm audible SNR allocates %v per call, want 0", allocs)
	}
}
