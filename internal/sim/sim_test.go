package sim

import (
	"math"
	"testing"

	"mmtag/internal/ap"
	"mmtag/internal/mac"
	"mmtag/internal/obs"
	"mmtag/internal/rfmath"
	"mmtag/internal/tag"
	"mmtag/internal/vanatta"
)

// A run's clock only moves forward: RunUntil to an earlier time leaves
// it, and the sim_time_seconds gauge, where they were.
func TestClockNeverMovesBack(t *testing.T) {
	c := clock{gauge: obs.NewRegistry().Gauge("sim_time_seconds", "")}
	c.RunUntil(2)
	c.RunUntil(1)
	if c.Now() != 2 || c.gauge.Value() != 2 {
		t.Fatalf("clock %g, gauge %g after RunUntil(2), RunUntil(1); want 2", c.Now(), c.gauge.Value())
	}
}

func newTag(t *testing.T, id uint8, elements int) *tag.Tag {
	t.Helper()
	return newModTag(t, id, elements, vanatta.OOK())
}

func newModTag(t *testing.T, id uint8, elements int, mod vanatta.StateSet) *tag.Tag {
	t.Helper()
	arr, err := vanatta.New(vanatta.Config{Elements: elements, InsertionLossDB: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tag.New(tag.Config{
		ID:             id,
		Array:          arr,
		Modulation:     mod,
		SwitchRiseTime: 2e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func newNetwork(t *testing.T) *Network {
	t.Helper()
	a, err := ap.New(ap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, nil); err == nil {
		t.Fatal("nil AP must error")
	}
	n := newNetwork(t)
	if err := n.AddTag(Placement{}); err == nil {
		t.Fatal("missing device must error")
	}
	tg := newTag(t, 1, 8)
	if err := n.AddTag(Placement{Device: tg, DistanceM: 0}); err == nil {
		t.Fatal("zero distance must error")
	}
	if err := n.AddTag(Placement{Device: tg, DistanceM: 2}); err != nil {
		t.Fatal(err)
	}
	dup := newTag(t, 1, 8)
	if err := n.AddTag(Placement{Device: dup, DistanceM: 3}); err == nil {
		t.Fatal("duplicate ID must error")
	}
	if n.TagCount() != 1 {
		t.Fatal("count")
	}
}

func TestNetworkSNRPhysics(t *testing.T) {
	n := newNetwork(t)
	for i, d := range []float64{1, 2, 4, 8} {
		tg := newTag(t, uint8(i+1), 8)
		if err := n.AddTag(Placement{Device: tg, DistanceM: d}); err != nil {
			t.Fatal(err)
		}
	}
	rate := mac.Rate{Mod: mac.ModOOK(), BitRate: 10e6}
	var prev float64 = math.Inf(1)
	for _, id := range n.Tags() {
		snr, audible := n.SNR(id, 0, rate)
		if !audible {
			t.Fatalf("tag %d inaudible", id)
		}
		if snr >= prev {
			t.Fatal("SNR must fall with distance")
		}
		prev = snr
	}
	// Doubling distance costs 12 dB (backscatter).
	s1, _ := n.SNR(1, 0, rate)
	s2, _ := n.SNR(2, 0, rate)
	if math.Abs(rfmath.DB(s1/s2)-12.04) > 0.05 {
		t.Fatalf("distance doubling cost %g dB, want ~12", rfmath.DB(s1/s2))
	}
}

func TestNetworkBeamMatters(t *testing.T) {
	n := newNetwork(t)
	tg := newTag(t, 1, 8)
	n.AddTag(Placement{Device: tg, DistanceM: 2, AzimuthRad: Deg(20)})
	rate := mac.Rate{Mod: mac.ModOOK(), BitRate: 10e6}
	on, okOn := n.SNR(1, Deg(20), rate)
	off, okOff := n.SNR(1, Deg(-20), rate)
	if !okOn {
		t.Fatal("on-beam must be audible")
	}
	if okOff && off >= on {
		t.Fatal("off-beam SNR must be worse (or inaudible)")
	}
}

func TestNetworkOrientationMatters(t *testing.T) {
	n := newNetwork(t)
	facing := newTag(t, 1, 8)
	oblique := newTag(t, 2, 8)
	n.AddTag(Placement{Device: facing, DistanceM: 2})
	n.AddTag(Placement{Device: oblique, DistanceM: 2, OrientationRad: Deg(40)})
	rate := mac.Rate{Mod: mac.ModOOK(), BitRate: 10e6}
	s1, _ := n.SNR(1, 0, rate)
	s2, _ := n.SNR(2, 0, rate)
	if s2 >= s1 {
		t.Fatal("oblique tag must have lower SNR")
	}
	// But thanks to retro-reflection the penalty is only the element
	// pattern: within ~10 dB.
	if rfmath.DB(s1/s2) > 10 {
		t.Fatalf("orientation penalty %g dB too steep for a van atta tag", rfmath.DB(s1/s2))
	}
}

func TestNetworkUnknownTag(t *testing.T) {
	n := newNetwork(t)
	if _, audible := n.SNR(9, 0, mac.Rate{Mod: mac.ModOOK(), BitRate: 1e6}); audible {
		t.Fatal("unknown tag must be inaudible")
	}
	if _, err := n.UplinkSNRdB(9, 1e6, 1); err == nil {
		t.Fatal("unknown tag SNR query must error")
	}
}

func TestSDMGroups(t *testing.T) {
	n := newNetwork(t)
	angles := []float64{-40, -38, 0, 2, 40}
	for i, a := range angles {
		tg := newTag(t, uint8(i+1), 8)
		n.AddTag(Placement{Device: tg, DistanceM: 2, AzimuthRad: Deg(a)})
	}
	groups := n.SDMGroups(n.Tags(), Deg(10))
	// -40, 0, 40 can share; -38 and 2 need other groups.
	if len(groups) != 2 {
		t.Fatalf("groups %v, want 2", groups)
	}
	// Every pair within a group is separated by >= 10 degrees.
	for _, g := range groups {
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				pi, _ := n.Placement(g[i])
				pj, _ := n.Placement(g[j])
				if math.Abs(pi.AzimuthRad-pj.AzimuthRad) < Deg(10) {
					t.Fatalf("group %v violates separation", g)
				}
			}
		}
	}
}

func TestRunInventoryEndToEnd(t *testing.T) {
	n := newNetwork(t)
	placements := []struct {
		d, az float64
	}{{2, -30}, {3, 0}, {4, 30}, {6, 15}}
	for i, p := range placements {
		tg := newTag(t, uint8(i+1), 8)
		if err := n.AddTag(Placement{Device: tg, DistanceM: p.d, AzimuthRad: Deg(p.az)}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := RunInventory(n, InventoryConfig{Duration: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Discovered != 4 {
		t.Fatalf("discovered %d of 4", rep.Discovered)
	}
	if rep.FramesOK == 0 || rep.GoodputBps <= 0 {
		t.Fatalf("no traffic delivered: %+v", rep)
	}
	if rep.PollCycles == 0 {
		t.Fatal("no poll cycles ran")
	}
	// Tag energy meters moved, and energy/bit lands in the nJ decade.
	if len(rep.EnergyPerTagJ) == 0 {
		t.Fatal("no tag energy recorded")
	}
	if rep.EnergyPerBitJ < 0.1e-9 || rep.EnergyPerBitJ > 100e-9 {
		t.Fatalf("energy per bit %.3g J implausible", rep.EnergyPerBitJ)
	}
}

func TestRunInventorySDMImprovesGoodput(t *testing.T) {
	build := func() *Network {
		n := newNetwork(t)
		for i, az := range []float64{-45, -15, 15, 45} {
			tg := newTag(t, uint8(i+1), 8)
			n.AddTag(Placement{Device: tg, DistanceM: 2, AzimuthRad: Deg(az)})
		}
		return n
	}
	plain, err := RunInventory(build(), InventoryConfig{Duration: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sdm, err := RunInventory(build(), InventoryConfig{Duration: 0.05, Seed: 2, SDM: true})
	if err != nil {
		t.Fatal(err)
	}
	if sdm.SDMGroups >= plain.SDMGroups {
		t.Fatalf("SDM groups %d should be fewer than TDMA slots %d", sdm.SDMGroups, plain.SDMGroups)
	}
	if sdm.GoodputBps <= plain.GoodputBps {
		t.Fatalf("SDM goodput %g must beat TDMA %g", sdm.GoodputBps, plain.GoodputBps)
	}
}

func TestRunInventoryOutOfRangeTag(t *testing.T) {
	n := newNetwork(t)
	near := newTag(t, 1, 8)
	far := newTag(t, 2, 8)
	n.AddTag(Placement{Device: near, DistanceM: 2})
	// 200 m: incident power below the envelope detector floor.
	n.AddTag(Placement{Device: far, DistanceM: 200})
	rep, err := RunInventory(n, InventoryConfig{Duration: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Discovered != 1 {
		t.Fatalf("discovered %d, want only the near tag", rep.Discovered)
	}
}

func TestRunInventoryValidation(t *testing.T) {
	if _, err := RunInventory(nil, InventoryConfig{}); err == nil {
		t.Fatal("nil network must error")
	}
}
