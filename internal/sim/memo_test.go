package sim

import (
	"math"
	"math/rand"
	"testing"

	"mmtag/internal/ap"
	"mmtag/internal/mac"
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
// gives on its first (cold-memo) query. It re-checks after each change
// the memo must see: a placement mutated in place (as RunMobile does),
// a new interferer and a new tag.
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
	beams := live.Codebook(Deg(60))
	rates := mac.DefaultRateTable()
	rng := rand.New(rand.NewSource(7))

	same := func(stage string, id uint8, beam float64, r mac.Rate) bool {
		t.Helper()
		got, gotOK := live.SNR(id, beam, r)
		want, wantOK := spec.build(t).SNR(id, beam, r)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: tag %d beam %g rate %s: memo answered (%v, %v), cold network (%v, %v)",
				stage, id, beam, r, got, gotOK, want, wantOK)
		}
		return gotOK
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
			if same(stage, q.id, q.beam, q.r) {
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
