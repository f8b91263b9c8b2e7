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
// shared AP and reuses the network's query memos and Link.
type Network struct {
	AP *ap.AP
	// PathLoss is the one-way propagation model. Set it before the
	// first query: the query memos price every answer through it.
	PathLoss channel.PathLoss
	// tags is indexed by the 8-bit tag ID; a nil slot is unplaced.
	tags        [256]*tagSlot
	ntags       int
	interferers []Interferer
	// gen counts AddInterferer calls; a tag memo filled under an older
	// generation misses.
	gen uint64

	// interf is the co-channel interference sum per (AP, beam), which
	// every tag shares, direct-mapped on the beam bits.
	interf [1 << interfSlotBits]interfMemo
	// refl and query are the Reflector and Link a cold query prices,
	// rebuilt in place (see budget).
	refl  gainReflector
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

type interfMemo struct {
	ap   *ap.AP
	beam uint64
	w    float64
}

// tagSlot is one placed tag: its placement, which callers mutate in
// place through Placement, and the memo of the queries asked about it.
type tagSlot struct {
	p    Placement
	memo tagMemo
}

// rateSlots bounds the per-rate answers a tag memo keeps; the default
// ladder's eight rates, the probe rate among them, fit.
const rateSlots = 8

// tagMemo caches the SNR answers for one tag, which mac.PickRate asks
// for every rate of the ladder on every poll. Each key holds the exact
// bits of every input its value is computed from, and each value is
// filled by the calls a cold query makes, so a hit returns the answer a
// cold query computes, bit for bit. The geometry key is every input but
// the rate: the AP, the tag device, the beam, the placement's four
// numbers and the interferer generation. Keys hold pointers and
// placement values, never the tag ID alone: the mobility runner mutates
// a placement in place, and its new position must miss.
type tagMemo struct {
	ap                            *ap.AP
	dev                           *tag.Tag
	beam, dist, az, orient, extra uint64
	gen                           uint64

	// The rate-invariant gains, computed by the first cold query after
	// their inputs moved (the AP must be steered first).
	apGain, tagGain   float64 // AP gain toward the tag; tag monostatic gain
	apStale, tagStale bool

	// answers under this geometry, keyed on the rate fields SNR reads:
	// the bit rate and alphabet (which fix the symbol rate) and the
	// alphabet's efficiency. The coding flag never changes an answer.
	answers [rateSlots]rateAnswer
	filled  int // answers written since the geometry last changed
	next    int // where the next lookup starts: one past the last hit
}

type rateAnswer struct {
	bitRate, eff uint64
	bits         int
	name         string

	// steered records that the query passed the capability checks and
	// so steered the AP and evaluated the link budget.
	steered, audible bool
	snr              float64
}

// refresh keys the memo to a query's geometry. Any change clears the
// per-rate answers and marks stale only the gains whose inputs moved:
// a beam sweep keeps the tag gain, and a moved tag prices every rate
// from one fresh pair of gains.
func (m *tagMemo) refresh(n *Network, p *Placement, beamRad float64) {
	beam := math.Float64bits(beamRad)
	dist, az := math.Float64bits(p.DistanceM), math.Float64bits(p.AzimuthRad)
	orient, extra := math.Float64bits(p.OrientationRad), math.Float64bits(p.ExtraLossDB)
	if m.ap == n.AP && m.dev == p.Device && m.beam == beam && m.dist == dist &&
		m.az == az && m.orient == orient && m.extra == extra && m.gen == n.gen {
		return
	}
	m.apStale = m.apStale || m.ap != n.AP || m.beam != beam || m.az != az
	m.tagStale = m.tagStale || m.dev != p.Device || m.orient != orient
	m.ap, m.dev, m.beam, m.dist, m.az, m.orient, m.extra, m.gen =
		n.AP, p.Device, beam, dist, az, orient, extra, n.gen
	m.filled, m.next = 0, 0
}

// gains returns the rate-invariant gains for the memo's geometry,
// recomputing the stale ones. The AP must be steered at the memo's beam.
func (m *tagMemo) gains(n *Network, p *Placement) (apGain, tagGain float64) {
	if m.apStale {
		m.apGain, m.apStale = n.AP.GainToward(p.AzimuthRad), false
	}
	if m.tagStale {
		m.tagGain, m.tagStale = p.Device.Array().MonostaticGain(p.OrientationRad), false
	}
	return m.apGain, m.tagGain
}

// answer returns the memo's entry for a rate and whether it was already
// filled. On a miss it claims a slot, overwriting the oldest once all
// are in use. The scan starts one past the last hit, where PickRate's
// walk up the ladder usually finds the next rate.
func (m *tagMemo) answer(r mac.Rate) (*rateAnswer, bool) {
	bitRate, eff := math.Float64bits(r.BitRate), math.Float64bits(r.Mod.Efficiency)
	used := min(m.filled, rateSlots)
	for k, i := 0, m.next; k < used; k, i = k+1, i+1 {
		if i >= used {
			i = 0
		}
		if a := &m.answers[i]; a.bitRate == bitRate && a.eff == eff &&
			a.bits == r.Mod.BitsPerSymbol && a.name == r.Mod.Name {
			m.next = i + 1
			return a, true
		}
	}
	i := m.filled % rateSlots
	m.filled++
	m.next = i + 1
	a := &m.answers[i]
	*a = rateAnswer{bitRate: bitRate, eff: eff, bits: r.Mod.BitsPerSymbol, name: r.Mod.Name}
	return a, false
}

// gainReflector is the cold query Link's reflector: the queried tag's
// array with its monostatic gain taken from the tag memo. The Link only
// evaluates it at the placement's orientation, which the memo keys on.
type gainReflector struct {
	arr  *vanatta.Array
	gain float64
}

// MonostaticGain implements vanatta.Reflector.
func (g *gainReflector) MonostaticGain(float64) float64 { return g.gain }

// Name implements vanatta.Reflector.
func (g *gainReflector) Name() string { return g.arr.Name() }

// NewNetwork builds an empty network around an AP. A nil pathloss means
// free space at the AP's carrier.
func NewNetwork(a *ap.AP, pl channel.PathLoss) (*Network, error) {
	if a == nil {
		return nil, fmt.Errorf("sim: AP is required")
	}
	if pl == nil {
		pl = channel.FreeSpace{FreqHz: a.Config().FreqHz}
	}
	return &Network{AP: a, PathLoss: pl}, nil
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
	if n.tags[id] != nil {
		return fmt.Errorf("sim: duplicate tag ID %d", id)
	}
	n.tags[id] = &tagSlot{p: p}
	n.ntags++
	return nil
}

// TagCount returns the number of placed tags.
func (n *Network) TagCount() int { return n.ntags }

// Placement returns a tag's placement.
func (n *Network) Placement(id uint8) (*Placement, bool) {
	if s := n.tags[id]; s != nil {
		return &s.p, true
	}
	return nil, false
}

// Tags implements mac.Medium.
func (n *Network) Tags() []uint8 {
	out := make([]uint8, 0, n.ntags)
	for id, s := range n.tags {
		if s != nil {
			out = append(out, uint8(id))
		}
	}
	return out
}

// AddInterferer registers a co-channel transmitter.
func (n *Network) AddInterferer(i Interferer) error {
	if i.DistanceM <= 0 || i.EIRPW <= 0 {
		return fmt.Errorf("sim: interferer needs positive distance and EIRP")
	}
	n.interferers = append(n.interferers, i)
	n.interf = [1 << interfSlotBits]interfMemo{}
	n.gen++
	return nil
}

// interferenceW returns the total co-channel interference power at the
// victim receiver with the AP steered at beamRad, memoized per beam.
func (n *Network) interferenceW(beamRad float64) float64 {
	bits := math.Float64bits(beamRad)
	m := &n.interf[(bits*0x9e3779b97f4a7c15)>>(64-interfSlotBits)]
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

// budget assembles the link budget for a tag, with the AP already
// steered at beamRad, into the network's query Link, which stays valid
// until the next query.
func (n *Network) budget(p *Placement, beamRad, apGain float64, refl vanatta.Reflector, efficiency float64) *channel.Link {
	n.query = channel.Link{
		Obs:           n.linkObs,
		InterferenceW: n.interferenceW(beamRad),
		FreqHz:        n.AP.Config().FreqHz,
		TxPowerW:      n.AP.Config().TxPowerW,
		APGain:        apGain,
		Reflector:     refl,
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
// query at all. Repeated questions are answered from the tag's memo; a
// hit steers the AP and meters the budget evaluation as the cold query
// did.
func (n *Network) SNR(tagID uint8, beamRad float64, r mac.Rate) (float64, bool) {
	n.snrQueries.Inc()
	s := n.tags[tagID]
	if s == nil {
		n.inaudible.Inc()
		return 0, false
	}
	s.memo.refresh(n, &s.p, beamRad)
	a, hit := s.memo.answer(r)
	if !hit {
		a.steered, a.snr, a.audible = n.price(s, beamRad, r)
	} else if a.steered {
		n.AP.Steer(beamRad)
		if a.audible {
			n.linkObs.Observe(a.snr)
		}
	}
	if !a.audible {
		n.inaudible.Inc()
		return 0, false
	}
	return a.snr, true
}

// price answers a query cold. Rates the tag hardware cannot produce — a
// different alphabet than its switch network implements, or a symbol
// rate beyond its switch rise time — report as inaudible without
// steering the AP, so the MAC never selects them. Otherwise it steers
// the AP and evaluates the link budget: whether the tag's envelope
// detector hears the AP, and the SNR in the symbol-rate bandwidth.
func (n *Network) price(s *tagSlot, beamRad float64, r mac.Rate) (steered bool, snr float64, audible bool) {
	p := &s.p
	if r.SymbolRate() > p.Device.MaxSymbolRate() {
		return false, 0, false
	}
	// Alphabet capability: a rate is usable natively when it names the
	// tag's own alphabet, and any 1-bit/symbol rate is usable on any tag
	// (binary signalling over two of its termination states, the same
	// mechanism the sync preamble uses). Higher-order rates on a tag
	// without that switch network are not producible.
	if r.Mod.Name != p.Device.Modulation().Name() && r.Mod.BitsPerSymbol != 1 {
		return false, 0, false
	}
	eff := r.Mod.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	n.AP.Steer(beamRad)
	apGain, tagGain := s.memo.gains(n, p)
	n.refl = gainReflector{arr: p.Device.Array(), gain: tagGain}
	l := n.budget(p, beamRad, apGain, &n.refl, eff)
	incident, err := l.TagIncidentPowerW()
	if err != nil || !p.Device.CanHear(incident) {
		return true, 0, false
	}
	snr, err = l.SNR(r.SymbolRate())
	if err != nil {
		return true, 0, false
	}
	return true, snr, true
}

// UplinkSNRdB returns the budget SNR in dB for diagnostics/experiments,
// steering the beam straight at the tag.
func (n *Network) UplinkSNRdB(tagID uint8, bandwidthHz, efficiency float64) (float64, error) {
	p, ok := n.Placement(tagID)
	if !ok {
		return 0, fmt.Errorf("sim: unknown tag %d", tagID)
	}
	n.AP.Steer(p.AzimuthRad)
	apGain := n.AP.GainToward(p.AzimuthRad)
	return n.budget(p, p.AzimuthRad, apGain, p.Device.Array(), efficiency).SNRdB(bandwidthHz)
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
		if p, ok := n.Placement(id); ok {
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
