package net

import (
	"fmt"
	"math"
	"time"

	"mmtag/internal/ap"
	"mmtag/internal/geom"
	"mmtag/internal/mac"
	"mmtag/internal/par"
	"mmtag/internal/rfmath"
	"mmtag/internal/sim"
	"mmtag/internal/tag"
	"mmtag/internal/trace"
	"mmtag/internal/vanatta"
)

// probeTagID is the reserved tag ID ProbeSINR uses; deployments are
// limited to 255 tags so it never collides with a placed tag.
const probeTagID = 255

// CellReport aggregates one AP cell over all epochs.
type CellReport struct {
	// AP is the cell's AP index.
	AP int
	// TagsServed is the cell's roster size in the final epoch.
	TagsServed int
	// Discovered is the final epoch's discovery count.
	Discovered int
	// PollCycles, FramesOK and FramesLost are summed across epochs.
	PollCycles int
	FramesOK   int
	FramesLost int
	// GoodputBps is the cell's mean per-epoch aggregate goodput.
	GoodputBps float64
}

// Report is the outcome of a full multi-AP run.
type Report struct {
	// APs, Rows, Cols, Tags and Epochs echo the resolved configuration.
	APs, Rows, Cols, Tags, Epochs int
	// Cells holds one aggregate per AP, in AP index order.
	Cells []CellReport
	// AggregateGoodputBps sums the cells' mean per-epoch goodput.
	AggregateGoodputBps float64
	// FramesOK and FramesLost are deployment totals across all epochs.
	FramesOK, FramesLost int
	// Discovered is how many of the placed tags the final epoch's
	// inventory reached, summed across cells.
	Discovered int
	// Handoffs lists every inter-AP handoff in (epoch, tag) order.
	Handoffs []Handoff
	// DuplicatePolls sums the per-handoff stale-roster estimates.
	DuplicatePolls int
}

// HandoffLatencies returns the handoff latencies in occurrence order
// (convenient for CDFs).
func (r *Report) HandoffLatencies() []float64 {
	out := make([]float64, len(r.Handoffs))
	for i, h := range r.Handoffs {
		out[i] = h.LatencyS
	}
	return out
}

// ProbeRate is the default rate ProbeSINR evaluations use: QPSK at
// 20 Mb/s, a mid-table entry of the MAC's rate ladder that the default
// deployment tag hardware can produce.
func ProbeRate() mac.Rate { return mac.Rate{Mod: mac.ModQPSK(), BitRate: 20e6} }

// newCellAP builds the per-cell access point (the reconstructed
// testbed AP; every cell is identical hardware).
func newCellAP() (*ap.AP, error) { return ap.New(ap.DefaultConfig()) }

// cellStream derives the per-(epoch, cell) RNG stream coordinate.
func cellStream(epoch, cell int) uint64 {
	return streamCellBase + uint64(epoch)*maxCells + uint64(cell)
}

// coChannel reports whether cells a and b share a channel under the
// reuse rule: rows and columns both differ by multiples of ReuseCells.
func (d *Deployment) coChannel(a, b int) bool {
	ra, ca := a/d.cols, a%d.cols
	rb, cb := b/d.cols, b%d.cols
	n := d.cfg.ReuseCells
	return (ra-rb)%n == 0 && (ca-cb)%n == 0
}

// Run simulates the deployment: Epochs rounds of (move tags,
// re-associate, run every AP cell concurrently on the pool), driven by
// a Runner stepping once per epoch. Output is a pure function of the
// configuration — cells write into indexed slots and all cross-cell
// state (association, handoffs, metrics) is updated serially between
// epochs, so any worker count produces the identical Report.
func (d *Deployment) Run() (*Report, error) {
	r := d.Runner(0)
	for e := 0; e < d.cfg.Epochs; e++ {
		if err := r.Step(); err != nil {
			return nil, err
		}
	}
	rep := r.rep
	rep.Discovered = r.lastDisc
	for c := range rep.Cells {
		rep.AggregateGoodputBps += rep.Cells[c].GoodputBps
		if d.m != nil {
			d.m.cellGoodpt.With(apLabel(c)).Set(rep.Cells[c].GoodputBps)
		}
	}
	return rep, nil
}

// runEpochCells fans one epoch's cell inventories out across the pool
// and returns the per-cell reports and wall-clock costs in AP index
// order.
func (d *Deployment) runEpochCells(epoch int, epochDur float64, rosters [][]*tagState) ([]*sim.InventoryReport, []time.Duration, error) {
	cfg := d.cfg
	cellReps := make([]*sim.InventoryReport, cfg.APs)
	cellWall := make([]time.Duration, cfg.APs)
	if err := cfg.Pool.Map(nil, cfg.APs, func(c int) error {
		start := time.Now()
		var err error
		cellReps[c], err = d.runCell(epoch, c, epochDur, rosters)
		cellWall[c] = time.Since(start)
		return err
	}); err != nil {
		return nil, nil, err
	}
	return cellReps, cellWall, nil
}

// emitEpochCost records the per-cell cost accounting, serially in AP
// index order so the trace stays schedule-independent (the wall values
// vary run to run; the event sequence does not).
func (d *Deployment) emitEpochCost(epoch int, epochDur float64, cellWall []time.Duration) {
	for c := 0; c < d.cfg.APs; c++ {
		if d.m != nil {
			d.m.epochWall.Observe(cellWall[c].Seconds())
		}
		if tr := d.cfg.Trace; tr != nil && d.cfg.CostSpans {
			tr.Emit(trace.Event{
				T:      float64(epoch) * epochDur,
				Kind:   trace.KindSpan,
				Span:   "cell-epoch",
				Detail: fmt.Sprintf("ap=%d epoch=%d", c, epoch),
				Dur:    epochDur,
				WallNs: cellWall[c].Nanoseconds(),
			})
		}
	}
}

// runCell simulates one AP cell for one epoch: the cell network with
// the cell's roster, the co-channel edge interferers, and a
// sim.RunInventory over the epoch's time slice with a
// par.Derive-sharded seed. It reads only immutable epoch state
// (rosters, tag positions), so cells are safe to run concurrently.
func (d *Deployment) runCell(epoch, c int, dur float64, rosters [][]*tagState) (*sim.InventoryReport, error) {
	cfg := d.cfg
	n, err := d.cellNetwork(c, rosters[c])
	if err != nil {
		return nil, err
	}
	if err := d.addEdgeInterferers(n, c, rosters); err != nil {
		return nil, err
	}
	return sim.RunInventory(n, sim.InventoryConfig{
		SectorRad: sim.Deg(discoverySectorDeg),
		Duration:  dur,
		Station:   mac.StationConfig{Health: mac.DefaultHealthConfig()},
		SDM:       cfg.SDM,
		SDMChains: cfg.SDMChains,
		Seed:      par.Derive(cfg.Seed, cellStream(epoch, c)),
		Faults:    cfg.Faults,
	})
}

// cellNetwork builds a fresh network around cell c's AP holding one tag
// device per entry of tags, placed in the AP's polar frame.
func (d *Deployment) cellNetwork(c int, tags []*tagState) (*sim.Network, error) {
	a, err := newCellAP()
	if err != nil {
		return nil, err
	}
	n, err := sim.NewNetwork(a, nil)
	if err != nil {
		return nil, err
	}
	mod, err := vanatta.ByName(d.cfg.Modulation)
	if err != nil {
		return nil, err
	}
	for _, t := range tags {
		arr, err := vanatta.New(vanatta.Config{
			Elements:        tagElements,
			InsertionLossDB: tagInsertionLossDB,
		})
		if err != nil {
			return nil, err
		}
		dev, err := tag.New(tag.Config{
			ID:             t.id,
			Array:          arr,
			Modulation:     mod,
			SwitchRiseTime: 2e-9,
		})
		if err != nil {
			return nil, err
		}
		dist, az := geom.Polar(d.apPos(c), t.pos, math.Pi/2)
		if dist < minAssocDistM {
			dist = minAssocDistM
		}
		if err := n.AddTag(sim.Placement{
			Device:     dev,
			DistanceM:  dist,
			AzimuthRad: az,
		}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// rosters shards the tags by serving AP, each roster in tag order.
func (d *Deployment) rosters() [][]*tagState {
	rosters := make([][]*tagState, d.cfg.APs)
	for _, t := range d.tags {
		rosters[t.serving] = append(rosters[t.serving], t)
	}
	return rosters
}

// addEdgeInterferers adds, to victim cell c's network, one co-channel
// interferer per foreign tag within InterfRangeM of c's AP: the tag's
// backscatter of its own serving AP's carrier, re-radiated toward the
// victim through its Van Atta bistatic pattern.
func (d *Deployment) addEdgeInterferers(n *sim.Network, c int, rosters [][]*tagState) error {
	cfg := d.cfg
	victim := d.apPos(c)
	for cc := range rosters {
		if cc == c || !d.coChannel(c, cc) {
			continue
		}
		for _, t := range rosters[cc] {
			dist, az := geom.Polar(victim, t.pos, math.Pi/2)
			if dist > cfg.InterfRangeM || dist <= 0 {
				continue
			}
			eirp := d.tagLeakageEIRPW(t, cc)
			if eirp <= 0 {
				continue
			}
			if err := n.AddInterferer(sim.Interferer{
				AzimuthRad: az,
				DistanceM:  dist,
				EIRPW:      eirp,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// tagLeakageEIRPW estimates the power tag t radiates toward a foreign
// AP: the incident power from its serving AP cc, scattered through the
// Van Atta array's bistatic gain between the retro direction and the
// victim's direction.
func (d *Deployment) tagLeakageEIRPW(t *tagState, cc int) float64 {
	servDist := geom.Dist(d.apPos(cc), t.pos)
	if servDist < minAssocDistM {
		servDist = minAssocDistM
	}
	incident, err := d.link(servDist).TagIncidentPowerW()
	if err != nil {
		return 0
	}
	// Angle between the serving direction (retro) and the victim
	// direction, as seen from the tag facing its serving AP.
	thetaOut := bearingDelta(t.pos, d.apPos(t.serving), d.apPos(cc))
	return incident * d.refl.BistaticGain(0, thetaOut)
}

// bearingDelta returns the absolute angle at p between directions to a
// and to b, normalized to [0, pi].
func bearingDelta(p, a, b geom.Point) float64 {
	da := math.Atan2(a.Y-p.Y, a.X-p.X)
	db := math.Atan2(b.Y-p.Y, b.X-p.X)
	delta := math.Mod(da-db, 2*math.Pi)
	if delta > math.Pi {
		delta -= 2 * math.Pi
	}
	if delta <= -math.Pi {
		delta += 2 * math.Pi
	}
	return math.Abs(delta)
}

// ProbeSINR evaluates the victim-side link quality a hypothetical tag
// at pos would see from cell c's AP under the current association
// state: the cell network is rebuilt with just the probe tag plus the
// co-channel edge interferers, and the SINR is evaluated with the beam
// steered at the probe. Returns the SINR in dB and the number of
// interferers in range (E21 uses both).
func (d *Deployment) ProbeSINR(c int, pos geom.Point, r mac.Rate) (sinrDB float64, interferers int, err error) {
	n, err := d.cellNetwork(c, []*tagState{{id: probeTagID, pos: pos}})
	if err != nil {
		return 0, 0, err
	}
	rosters := d.rosters()
	if err := d.addEdgeInterferers(n, c, rosters); err != nil {
		return 0, 0, err
	}
	for cc := range rosters {
		if cc != c && d.coChannel(c, cc) {
			for _, t := range rosters[cc] {
				if dd := geom.Dist(d.apPos(c), t.pos); dd <= d.cfg.InterfRangeM {
					interferers++
				}
			}
		}
	}
	_, az := geom.Polar(d.apPos(c), pos, math.Pi/2)
	snr, audible := n.SNR(probeTagID, az, r)
	if !audible {
		return math.Inf(-1), interferers, nil
	}
	return rfmath.DB(snr), interferers, nil
}
