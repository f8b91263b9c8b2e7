package sim

import (
	"fmt"
	"math"
	"sort"

	"mmtag/internal/antenna"
	"mmtag/internal/ap"
	"mmtag/internal/channel"
	"mmtag/internal/mac"
	"mmtag/internal/obs"
	"mmtag/internal/tag"
	"mmtag/internal/vanatta"
)

// Placement positions one tag in the AP's polar frame.
type Placement struct {
	// Device is the tag hardware model.
	Device *tag.Tag
	// DistanceM is the AP-tag range.
	DistanceM float64
	// AzimuthRad is the direction of the tag as seen from the AP
	// (radians from the AP array's broadside).
	AzimuthRad float64
	// OrientationRad is the incidence angle at the tag: the angle
	// between the tag array's broadside and the direction back to the
	// AP. Zero means the tag faces the AP squarely.
	OrientationRad float64
	// ExtraLossDB is additional one-way link loss applied on top of the
	// propagation model — the hook the mobility runner uses for
	// blockage episodes (a human body at mmWave costs 20-40 dB).
	ExtraLossDB float64
}

// Interferer is a co-channel transmitter (a neighbouring AP) whose
// carrier raises the victim AP's interference floor. Its contribution
// depends on the victim's current beam: an interferer in the beam's
// direction couples through the main lobe; elsewhere only through
// sidelobes.
type Interferer struct {
	// AzimuthRad is the interferer's bearing from the victim AP.
	AzimuthRad float64
	// DistanceM is its range from the victim AP.
	DistanceM float64
	// EIRPW is the interferer's radiated power toward the victim
	// (transmit power × its antenna gain in this direction), watts.
	EIRPW float64
}

// Network is an AP plus a set of placed tags over a propagation model.
// It implements mac.Medium from first principles: every SNR the MAC sees
// comes out of the monostatic backscatter link budget.
//
// A Network is not safe for concurrent use: every query steers the
// shared AP and reuses the network's query memo and Link.
type Network struct {
	AP *ap.AP
	// PathLoss is the one-way propagation model. Set it before the
	// first query: the interference memo prices each beam through it.
	PathLoss    channel.PathLoss
	tags        map[uint8]*Placement
	interferers []Interferer

	// memo holds the rate-invariant factors of recent queries; query is
	// the Link every query rebuilds in place (see link).
	memo  queryMemo
	query channel.Link

	// Instrumentation (all nil-safe; see Instrument).
	linkObs    *channel.LinkObs
	snrQueries *obs.Counter
	inaudible  *obs.Counter
}

// interfSlotBits sizes the direct-mapped interference memo at 64 slots,
// well above the 24 beams of a deployment cell's codebook, so a cell's
// queries compute the interference sum about once per beam.
const interfSlotBits = 6

// queryMemo caches the parts of an SNR query that do not depend on the
// rate, which mac.PickRate otherwise recomputes for every entry of the
// rate ladder. Each entry is keyed on the exact bits of every input its
// value is computed from and is filled by the same call the query would
// make, so a hit returns the value a cold query computes, bit for bit.
// Keys hold pointers (AP, tag array), never tag IDs: a placement is
// mutated in place by the mobility runner, and its new azimuth or
// orientation must miss.
type queryMemo struct {
	// interf is the co-channel interference sum per (AP, beam),
	// direct-mapped on the beam bits.
	interf [1 << interfSlotBits]interfMemo
	// apGain is the AP gain toward the last (AP, beam, tag azimuth).
	apGain gainMemo
	// refl is the query Link's reflector: the tag array's monostatic
	// gain at the last (array, orientation).
	refl reflMemo
}

type interfMemo struct {
	ap   *ap.AP
	beam uint64
	w    float64
}

type gainMemo struct {
	ap       *ap.AP
	beam, az uint64
	gain     float64
}

// reflMemo is the vanatta.Reflector a query's Link prices: the placed
// tag's array, with the monostatic gain of the last (array, angle) it
// evaluated remembered.
type reflMemo struct {
	// arr is the array of the tag being queried.
	arr *vanatta.Array

	key   *vanatta.Array
	theta uint64
	gain  float64
}

// MonostaticGain implements vanatta.Reflector.
func (m *reflMemo) MonostaticGain(theta float64) float64 {
	bits := math.Float64bits(theta)
	if m.key == nil || m.key != m.arr || m.theta != bits {
		m.key, m.theta, m.gain = m.arr, bits, m.arr.MonostaticGain(theta)
	}
	return m.gain
}

// Name implements vanatta.Reflector.
func (m *reflMemo) Name() string { return m.arr.Name() }

// NewNetwork builds an empty network around an AP. A nil pathloss means
// free space at the AP's carrier.
func NewNetwork(a *ap.AP, pl channel.PathLoss) (*Network, error) {
	if a == nil {
		return nil, fmt.Errorf("sim: AP is required")
	}
	if pl == nil {
		pl = channel.FreeSpace{FreqHz: a.Config().FreqHz}
	}
	return &Network{AP: a, PathLoss: pl, tags: make(map[uint8]*Placement)}, nil
}

// Instrument meters the network's link-budget activity into the
// handle's registry: per-query counters plus the channel-level budget
// instruments threaded into every Link it builds. Nil handles no-op.
func (n *Network) Instrument(h *obs.Handle) {
	reg := h.Registry()
	if reg == nil {
		return
	}
	n.linkObs = channel.NewLinkObs(reg)
	n.snrQueries = reg.Counter("sim_snr_queries_total",
		"MAC-visible SNR queries answered by the network.")
	n.inaudible = reg.Counter("sim_snr_inaudible_total",
		"SNR queries answered inaudible (out of range, rate unusable).")
}

// AddTag places a tag. IDs must be unique; distance must be positive.
func (n *Network) AddTag(p Placement) error {
	if p.Device == nil {
		return fmt.Errorf("sim: placement needs a device")
	}
	if p.DistanceM <= 0 {
		return fmt.Errorf("sim: tag distance must be positive, got %g", p.DistanceM)
	}
	id := p.Device.ID()
	if _, dup := n.tags[id]; dup {
		return fmt.Errorf("sim: duplicate tag ID %d", id)
	}
	n.tags[id] = &p
	n.memo = queryMemo{}
	return nil
}

// TagCount returns the number of placed tags.
func (n *Network) TagCount() int { return len(n.tags) }

// Placement returns a tag's placement.
func (n *Network) Placement(id uint8) (*Placement, bool) {
	p, ok := n.tags[id]
	return p, ok
}

// Tags implements mac.Medium.
func (n *Network) Tags() []uint8 {
	out := make([]uint8, 0, len(n.tags))
	for id := range n.tags {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddInterferer registers a co-channel transmitter.
func (n *Network) AddInterferer(i Interferer) error {
	if i.DistanceM <= 0 || i.EIRPW <= 0 {
		return fmt.Errorf("sim: interferer needs positive distance and EIRP")
	}
	n.interferers = append(n.interferers, i)
	n.memo = queryMemo{}
	return nil
}

// interferenceW returns the total co-channel interference power at the
// victim receiver with the AP steered at beamRad, memoized per beam.
func (n *Network) interferenceW(beamRad float64) float64 {
	bits := math.Float64bits(beamRad)
	m := &n.memo.interf[(bits*0x9e3779b97f4a7c15)>>(64-interfSlotBits)]
	if m.ap == n.AP && m.beam == bits {
		return m.w
	}
	total := 0.0
	for _, i := range n.interferers {
		rxGain := n.AP.GainToward(i.AzimuthRad)
		total += i.EIRPW * rxGain / n.PathLoss.Loss(i.DistanceM)
	}
	*m = interfMemo{ap: n.AP, beam: bits, w: total}
	return total
}

// apGain returns the AP gain toward azRad with the AP steered at
// beamRad, memoized for the last (beam, azimuth).
func (n *Network) apGain(beamRad, azRad float64) float64 {
	beam, az := math.Float64bits(beamRad), math.Float64bits(azRad)
	m := &n.memo.apGain
	if m.ap != n.AP || m.beam != beam || m.az != az {
		*m = gainMemo{ap: n.AP, beam: beam, az: az, gain: n.AP.GainToward(azRad)}
	}
	return m.gain
}

// link assembles the budget for a tag under a given beam and modulation
// efficiency into the network's query Link, which stays valid until the
// next query.
func (n *Network) link(p *Placement, beamRad, efficiency float64) *channel.Link {
	n.AP.Steer(beamRad)
	n.memo.refl.arr = p.Device.Array()
	n.query = channel.Link{
		Obs:           n.linkObs,
		InterferenceW: n.interferenceW(beamRad),
		FreqHz:        n.AP.Config().FreqHz,
		TxPowerW:      n.AP.Config().TxPowerW,
		APGain:        n.apGain(beamRad, p.AzimuthRad),
		Reflector:     &n.memo.refl,
		TagAngleRad:   p.OrientationRad,
		DistanceM:     p.DistanceM,
		PathLoss:      n.PathLoss,
		ModEfficiency: efficiency,
		NoiseFigureDB: n.AP.Config().NoiseFigureDB,
		MiscLossDB:    p.ExtraLossDB,
	}
	return &n.query
}

// SNR implements mac.Medium: the uplink SNR in the rate's symbol-rate
// noise bandwidth, plus whether the tag's envelope detector hears the
// query at all. Rates the tag hardware cannot produce — a different
// alphabet than its switch network implements, or a symbol rate beyond
// its switch rise time — report as inaudible so the MAC never selects
// them.
func (n *Network) SNR(tagID uint8, beamRad float64, r mac.Rate) (float64, bool) {
	n.snrQueries.Inc()
	p, ok := n.tags[tagID]
	if !ok {
		n.inaudible.Inc()
		return 0, false
	}
	if r.SymbolRate() > p.Device.MaxSymbolRate() {
		n.inaudible.Inc()
		return 0, false
	}
	// Alphabet capability: a rate is usable natively when it names the
	// tag's own alphabet, and any 1-bit/symbol rate is usable on any tag
	// (binary signalling over two of its termination states, the same
	// mechanism the sync preamble uses). Higher-order rates on a tag
	// without that switch network are not producible.
	if r.Mod.Name != p.Device.Modulation().Name() && r.Mod.BitsPerSymbol != 1 {
		n.inaudible.Inc()
		return 0, false
	}
	eff := r.Mod.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	l := n.link(p, beamRad, eff)
	incident, err := l.TagIncidentPowerW()
	if err != nil || !p.Device.CanHear(incident) {
		n.inaudible.Inc()
		return 0, false
	}
	snr, err := l.SNR(r.SymbolRate())
	if err != nil {
		n.inaudible.Inc()
		return 0, false
	}
	return snr, true
}

// UplinkSNRdB returns the budget SNR in dB for diagnostics/experiments,
// steering the beam straight at the tag.
func (n *Network) UplinkSNRdB(tagID uint8, bandwidthHz, efficiency float64) (float64, error) {
	p, ok := n.tags[tagID]
	if !ok {
		return 0, fmt.Errorf("sim: unknown tag %d", tagID)
	}
	return n.link(p, p.AzimuthRad, efficiency).SNRdB(bandwidthHz)
}

// SDMGroups partitions the known tag IDs into groups that can be served
// concurrently by separate beams: within a group, every pair is
// separated in azimuth by at least minSepRad (greedy first-fit by
// azimuth). Tags in the same group get simultaneous slots; the number
// of groups is the TDMA cycle length under SDM.
func (n *Network) SDMGroups(ids []uint8, minSepRad float64) [][]uint8 {
	type entry struct {
		id uint8
		az float64
	}
	entries := make([]entry, 0, len(ids))
	for _, id := range ids {
		if p, ok := n.tags[id]; ok {
			entries = append(entries, entry{id, p.AzimuthRad})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].az < entries[j].az })
	var groups [][]uint8
	var groupLastAz []float64
	for _, e := range entries {
		placed := false
		for g := range groups {
			if math.Abs(e.az-groupLastAz[g]) >= minSepRad {
				groups[g] = append(groups[g], e.id)
				groupLastAz[g] = e.az
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []uint8{e.id})
			groupLastAz = append(groupLastAz, e.az)
		}
	}
	return groups
}

// BeamSeparation returns the AP's half-power beamwidth, the natural
// minimum SDM separation.
func (n *Network) BeamSeparation() float64 {
	return n.AP.Array().HalfPowerBeamwidth()
}

// Codebook returns the AP's discovery beams covering ±sector.
func (n *Network) Codebook(sectorRad float64) []float64 {
	return n.AP.Beams(sectorRad)
}

// Deg re-exports the degree conversion for callers building placements.
func Deg(d float64) float64 { return antenna.Deg(d) }
