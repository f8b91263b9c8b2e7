package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"mmtag/internal/ap"
	"mmtag/internal/channel"
	"mmtag/internal/dsp"
	"mmtag/internal/frame"
	"mmtag/internal/link"
	"mmtag/internal/net"
	"mmtag/internal/par"
	"mmtag/internal/phy"
	"mmtag/internal/vanatta"
)

// scaleSpec is one scale workload: the population and the fidelity
// ladder it runs on.
type scaleSpec struct {
	tags  int
	tiers link.Thresholds
}

var (
	ladderSpec = scaleSpec{tags: 32_768, tiers: link.DefaultThresholds()}
	budgetSpec = scaleSpec{tags: 4_000_000, tiers: link.AllBudget()}
)

const (
	scaleAPs     = 16
	scaleCellM   = 32
	scaleFrames  = 4
	scalePayload = 32 // the engine's default payload, bytes
	// lightTags is one default chunk: the smallest population Run
	// fans out, so its wall time is the engine's per-call floor.
	lightTags = 4096
	// setupBatch is how many NewScale calls one set-up sample averages:
	// one call takes microseconds, too short to time alone.
	setupBatch = 50
	// lightShare is the percentage of the measuring time spent on
	// one-chunk Runs.
	lightShare = 15

	// replayBlock is how many consecutive tags the traced replay groups
	// under one root span; inside a block each layer's calls share one
	// span, which keeps the timer cost off sub-microsecond calls.
	replayBlock = 256
	// replayFlushLanes mirrors the engine's staged-lane flush bound.
	replayFlushLanes = 256
	// assocBandwidthHz is the bandwidth association SNR is quoted in;
	// the engine scales it to the rate's symbol bandwidth before a link
	// engine sees it.
	assocBandwidthHz = 10e6
	// replayStreamBase and kernelStream name the replay's own RNG
	// streams, disjoint from the engine's.
	replayStreamBase uint64 = 9 << 40
	kernelStream     uint64 = 10 << 40
	// waveformSPS and waveformPreamble match the tier-a chain.
	waveformSPS      = 4
	waveformPreamble = 63
)

func (sp scaleSpec) config(seed int64, tags int, pool *par.Pool) net.ScaleConfig {
	th := sp.tiers
	return net.ScaleConfig{
		APs: scaleAPs, CellM: scaleCellM, Tags: tags, FramesPerTag: scaleFrames,
		PayloadBytes: scalePayload, Tiers: &th, Seed: seed, Pool: pool,
	}
}

// reportProblem checks a scale report's internal consistency and, when
// ref is non-nil, that it is identical to ref. It returns "" when the
// report is correct.
func reportProblem(rep, ref *net.ScaleReport, tags int) string {
	if sum := rep.TierTags[0] + rep.TierTags[1] + rep.TierTags[2]; sum != int64(tags) {
		return fmt.Sprintf("tier tags sum to %d, want %d", sum, tags)
	}
	if got := rep.FramesOK + rep.FramesLost; got != int64(tags*scaleFrames) {
		return fmt.Sprintf("frames ok+lost = %d, want %d", got, tags*scaleFrames)
	}
	if ref != nil && !reflect.DeepEqual(rep, ref) {
		return "report differs from the first run's"
	}
	return ""
}

// timedRun runs dep once and checks the report against ref.
func timedRun(b *bench, dep *net.ScaleDeployment, ref *net.ScaleReport, tags int) (*net.ScaleReport, time.Duration, error) {
	t0 := time.Now()
	rep, err := dep.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	why := reportProblem(rep, ref, tags)
	b.op(why == "", "scale run (%d tags): %s", tags, why)
	return rep, wall, nil
}

func runScale(b *bench, sp scaleSpec) error {
	pool := par.New(par.Config{Workers: b.nproc})
	defer pool.Close()
	if b.traced {
		return traceScale(b, sp, pool)
	}
	start := time.Now()
	cfg := sp.config(b.seed, sp.tags, pool)
	fmt.Fprintf(b.out, "input: %d tags, %d APs, %g m cells, %d frames/tag, tiers %+v, %d workers\n",
		sp.tags, scaleAPs, float64(scaleCellM), scaleFrames, sp.tiers, b.nproc)

	// Every round of the loop below samples set-up, then spends about
	// lightShare of the round on one-chunk Runs, then times one
	// population Run. Each figure's median thus spans the whole run, so
	// the host's slower and faster stretches weigh on all of them alike.
	var setups []time.Duration
	var dep *net.ScaleDeployment
	setup := func() error {
		t0 := time.Now()
		for j := 0; j < setupBatch; j++ {
			d, err := net.NewScale(cfg)
			if err != nil {
				return err
			}
			dep = d
		}
		setups = append(setups, time.Since(t0)/setupBatch)
		return nil
	}
	if err := setup(); err != nil {
		return err
	}
	light, err := net.NewScale(sp.config(b.seed, lightTags, pool))
	if err != nil {
		return err
	}
	// One warm-up run of each fixes the reference reports; every timed
	// run must reproduce them exactly.
	lightRef, _, err := timedRun(b, light, nil, lightTags)
	if err != nil {
		return err
	}
	ref, last, err := timedRun(b, dep, nil, sp.tags)
	if err != nil {
		return err
	}
	var walls, lightWalls []time.Duration
	var sum time.Duration
	end := start.Add(b.seconds)
	for len(walls) < 3 || time.Now().Before(end) {
		if err := setup(); err != nil {
			return err
		}
		for spent := time.Duration(0); spent == 0 || spent < last*lightShare/(100-lightShare); {
			_, wall, err := timedRun(b, light, lightRef, lightTags)
			if err != nil {
				return err
			}
			lightWalls = append(lightWalls, wall)
			spent += wall
		}
		_, wall, err := timedRun(b, dep, ref, sp.tags)
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		sum += wall
		last = wall
	}
	runs := make([]float64, len(walls))
	for i, w := range walls {
		runs[i] = ms(w)
	}
	d := newDist(runs)
	d.describe(b.out, "population read (Run) wall")
	newDist(msOf(lightWalls)).describe(b.out, fmt.Sprintf("one-chunk read (%d-tag Run) wall", lightTags))
	fmt.Fprintf(b.out, "tiers a/b/c: %v; frames ok %d lost %d\n", ref.TierTags, ref.FramesOK, ref.FramesLost)

	b.set("setup_s", durMedian(setups))
	b.set("tags_per_s", float64(sp.tags)/(median(runs)/1e3))
	b.set("light_read_p50_ms", median(msOf(lightWalls)))
	b.set("read_ok_frac", float64(ref.FramesOK)/float64(ref.FramesOK+ref.FramesLost))
	b.set("epochs_per_s", float64(len(walls))/sum.Seconds())
	return nil
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// replayOut is what one replay of the population did.
type replayOut struct {
	tiers    [3]int64 // tags per tier
	frames   [3]int64 // frames per tier
	ok       int64    // frames delivered
	flushes  []int    // staged lanes per waveform flush
	laneSNRs []float64
	wall     time.Duration
}

// replay walks the population tag by tag through the public per-tag
// API — TagAssignment, then the tier's link engine — on its own RNG
// streams. With a nil tracer it records nothing; with one, every block
// of tags gets a root span and one child span per layer it called.
func replay(dep *net.ScaleDeployment, seed int64, tags int, tr *tracer) (replayOut, error) {
	rate := net.ProbeRate()
	airBits := frame.AirBits(scalePayload, frame.Options{Coded: rate.Coded})
	snrScale := assocBandwidthHz / rate.SymbolRate()
	var bud link.Budget
	sym := link.NewSymbol()
	wav := link.NewWaveform()
	rng := rand.New(rand.NewSource(0))
	var batch link.FrameBatch
	var okFlags []bool
	var out replayOut
	snrDB := make([]float64, replayBlock)
	snr := make([]float64, replayBlock)
	tier := make([]link.Tier, replayBlock)

	flush := func(parent int32, req int64) error {
		id := tr.begin("link.waveform.flush", parent, req)
		lanes := batch.Len()
		var err error
		okFlags, err = wav.FlushFrames(&batch, okFlags[:0])
		tr.end(id)
		out.flushes = append(out.flushes, lanes)
		for _, ok := range okFlags {
			if ok {
				out.ok++
			}
		}
		return err
	}
	count := func(f bool) int64 {
		if f {
			return 1
		}
		return 0
	}

	start := time.Now()
	for lo := 0; lo < tags; lo += replayBlock {
		hi := min(lo+replayBlock, tags)
		req := int64(lo / replayBlock)
		root := tr.begin("replay.block", -1, req)

		id := tr.begin("net.assign", root, req)
		for i := lo; i < hi; i++ {
			_, snrDB[i-lo], tier[i-lo] = dep.TagAssignment(i)
		}
		tr.end(id)

		var inTier [3]int
		for j := 0; j < hi-lo; j++ {
			snr[j] = math.Pow(10, snrDB[j]/10) * snrScale
			inTier[tier[j]]++
			out.tiers[tier[j]]++
			out.frames[tier[j]] += scaleFrames
		}

		if inTier[link.TierBudget] > 0 {
			id = tr.begin("link.budget", root, req)
			for j := 0; j < hi-lo; j++ {
				if tier[j] != link.TierBudget {
					continue
				}
				st := par.NewStream(seed, replayStreamBase+uint64(lo+j))
				for f := 0; f < scaleFrames; f++ {
					out.ok += count(bud.FrameOutcome(rate, snr[j], airBits, &st))
				}
			}
			tr.end(id)
		}
		if inTier[link.TierSymbol] > 0 {
			id = tr.begin("link.symbol", root, req)
			for j := 0; j < hi-lo; j++ {
				if tier[j] != link.TierSymbol {
					continue
				}
				rng.Seed(par.Derive(seed, replayStreamBase+uint64(lo+j)))
				for f := 0; f < scaleFrames; f++ {
					good, err := sym.FrameSuccess(rate, snr[j], scalePayload, rng)
					if err != nil {
						return out, err
					}
					out.ok += count(good)
				}
			}
			tr.end(id)
		}
		if inTier[link.TierWaveform] > 0 {
			id = tr.begin("link.waveform.stage", root, req)
			for j := 0; j < hi-lo; j++ {
				if tier[j] != link.TierWaveform {
					continue
				}
				rng.Seed(par.Derive(seed, replayStreamBase+uint64(lo+j)))
				for f := 0; f < scaleFrames; f++ {
					if err := wav.StageFrame(&batch, rate, snr[j], scalePayload, rng); err != nil {
						return out, err
					}
					if len(out.laneSNRs) < replayFlushLanes {
						out.laneSNRs = append(out.laneSNRs, snr[j])
					}
				}
				if batch.Len() >= replayFlushLanes {
					if err := flush(id, req); err != nil {
						return out, err
					}
				}
			}
			tr.end(id)
		}
		tr.end(root)
	}
	if batch.Len() > 0 {
		req := int64((tags + replayBlock - 1) / replayBlock)
		root := tr.begin("replay.block", -1, req)
		if err := flush(root, req); err != nil {
			return out, err
		}
		tr.end(root)
	}
	out.wall = time.Since(start)
	return out, nil
}

func traceScale(b *bench, sp scaleSpec, pool *par.Pool) error {
	cfg := sp.config(b.seed, sp.tags, pool)
	dep, err := net.NewScale(cfg)
	if err != nil {
		return err
	}
	// Warm-up run, metered for heap allocations.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref, _, err := timedRun(b, dep, nil, sp.tags)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	allocsPerTag := float64(m1.Mallocs-m0.Mallocs) / float64(sp.tags)

	_, tN, err := timedRun(b, dep, ref, sp.tags)
	if err != nil {
		return err
	}
	serialCfg := cfg
	serialCfg.Pool = nil // a nil pool runs every chunk on the caller
	serial, err := net.NewScale(serialCfg)
	if err != nil {
		return err
	}
	_, t1, err := timedRun(b, serial, ref, sp.tags)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "par: Run %s at 1 worker, %s at %d workers\n",
		t1.Round(time.Millisecond), tN.Round(time.Millisecond), b.nproc)

	// The replay untraced, traced, and untraced again: the traced wall
	// time over the mean untraced one is the tracing overhead, with the
	// first replay's warm-up split across both sides.
	plain, err := replay(dep, b.seed, sp.tags, nil)
	if err != nil {
		return err
	}
	epoch := time.Now()
	tr := newTracer(epoch)
	traced, err := replay(dep, b.seed, sp.tags, tr)
	if err != nil {
		return err
	}
	again, err := replay(dep, b.seed, sp.tags, nil)
	if err != nil {
		return err
	}
	untraced := (plain.wall + again.wall) / 2
	for t := range ref.TierTags {
		b.op(plain.tiers[t] == ref.TierTags[t] && traced.tiers[t] == ref.TierTags[t],
			"tier %s: replay counted %d (untraced) and %d (traced) tags, Run %d",
			link.Tier(t), plain.tiers[t], traced.tiers[t], ref.TierTags[t])
	}
	fmt.Fprintf(b.out, "replay: tiers a/b/c %v (Run: %v); %d of %d frames delivered on the replay's own streams\n",
		traced.tiers, ref.TierTags, traced.ok, sp.tags*scaleFrames)
	overhead := (traced.wall.Seconds() - untraced.Seconds()) / untraced.Seconds()
	fmt.Fprintf(b.out, "tracing overhead: %+.2f%% (traced replay %s vs untraced replays %s and %s, %d spans)\n",
		100*overhead, traced.wall.Round(time.Millisecond), plain.wall.Round(time.Millisecond),
		again.wall.Round(time.Millisecond), len(tr.spans))

	lt := tr.selfTimes()
	layerSum := printLayers(b.out, "replay", lt, traced.wall)
	self := func(name string) time.Duration {
		if l := lt[name]; l != nil {
			return l.Self
		}
		return 0
	}
	perUnit := func(d time.Duration, n int64, unit time.Duration) float64 {
		if n == 0 {
			return 0 // the layer did no work on this workload
		}
		return float64(d) / float64(unit) / float64(n)
	}

	// ap and dsp, timed on lanes of the size the replay staged.
	kt := newTracer(epoch)
	demodNs, xcorrNs, err := timeKernels(b, traced, kt)
	if err != nil {
		return err
	}
	tr.merge(kt)
	path, err := tr.writeSpans(fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(tr.spans), path)

	b.set("net.assign_ns_per_tag", perUnit(self("net.assign"), int64(sp.tags), time.Nanosecond))
	b.set("link.budget_ns_per_frame", perUnit(self("link.budget"), traced.frames[link.TierBudget], time.Nanosecond))
	b.set("link.symbol_us_per_frame", perUnit(self("link.symbol"), traced.frames[link.TierSymbol], time.Microsecond))
	b.set("link.waveform_us_per_frame", perUnit(self("link.waveform.stage")+self("link.waveform.flush"),
		traced.frames[link.TierWaveform], time.Microsecond))
	b.set("ap.demod_ns_per_tag_symbol", demodNs)
	b.set("dsp.xcorr_ns_per_lane", xcorrNs)
	b.set("par.speedup", t1.Seconds()/tN.Seconds())
	b.set("net.allocs_per_tag", allocsPerTag)
	b.set("link.tier_a_tags", float64(ref.TierTags[link.TierWaveform]))
	b.set("link.tier_b_tags", float64(ref.TierTags[link.TierSymbol]))
	b.set("link.tier_c_tags", float64(ref.TierTags[link.TierBudget]))
	b.set("trace.overhead_frac", overhead)
	b.set("trace.layer_sum_frac", layerSum)
	return nil
}

// timeKernels times ap.Demodulator.DemodulateBatchTo and
// dsp.CorrKernel.CrossCorrelateBatch on a batch as wide as the replay's
// median waveform flush, with frames synthesized like the staged ones.
// It returns ns per tag·symbol and ns per correlated lane (0 and 0 when
// the replay staged nothing).
func timeKernels(b *bench, rp replayOut, tr *tracer) (demodNs, xcorrNs float64, err error) {
	if len(rp.flushes) == 0 {
		fmt.Fprintln(b.out, "kernels: the replay staged no waveforms; ap and dsp are bypassed on this workload")
		return 0, 0, nil
	}
	fl := make([]float64, len(rp.flushes))
	for i, n := range rp.flushes {
		fl[i] = float64(n)
	}
	lanes := int(median(fl))
	rate := net.ProbeRate()
	set, err := vanatta.ByName(rate.Mod.Name)
	if err != nil {
		return 0, 0, err
	}
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		return 0, 0, err
	}
	opts := frame.Options{Coded: rate.Coded}
	dem, err := ap.NewDemodulator(c, waveformPreamble, opts)
	if err != nil {
		return 0, 0, err
	}
	mod, err := vanatta.NewModulator(set, 10e6, 10e6*waveformSPS, 0)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(par.Derive(b.seed, kernelStream)))
	rx := dsp.NewBatch(0, 0)
	payload := make([]byte, scalePayload)
	for l := 0; l < lanes; l++ {
		rng.Read(payload)
		f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: payload}
		bits, err := f.EncodeBits(opts)
		if err != nil {
			return 0, 0, err
		}
		syms := c.MapBits(dem.PreambleSymbolIndices(), bits)
		if need := len(syms) * waveformSPS; need > rx.Stride() {
			rx.Restride(need)
		}
		i := rx.AddLane()
		mod.Reset()
		wave := mod.Waveform(rx.LaneCap(i)[:0], syms)
		channel.AWGN(rng, wave, c.MeanPower()/rp.laneSNRs[l%len(rp.laneSNRs)]*waveformSPS)
		rx.SetLaneLen(i, len(wave))
	}

	// The correlation input the demodulator builds: one
	// integrate-and-dump lane per sub-symbol alignment of every frame.
	pre := frame.Preamble(waveformPreamble)
	ref := make([]complex128, len(pre))
	var mean complex128
	for i, bit := range pre {
		ref[i] = c.Point(int(bit))
		mean += ref[i]
	}
	mean /= complex(float64(len(ref)), 0)
	for i := range ref {
		ref[i] -= mean
	}
	kern := dsp.NewCorrKernel(ref)
	maxSyms, symbols := 0, 0
	for l := 0; l < lanes; l++ {
		n := len(rx.Lane(l)) / waveformSPS
		maxSyms = max(maxSyms, n)
		symbols += n
	}
	x := dsp.NewBatch(lanes*waveformSPS, maxSyms)
	corr := dsp.NewBatch(lanes*waveformSPS, maxSyms)
	skip := waveformSPS / 4
	for l := 0; l < lanes; l++ {
		wave := rx.Lane(l)
		for off := 0; off < waveformSPS; off++ {
			k := l*waveformSPS + off
			ns := (len(wave) - off) / waveformSPS
			x.SetLaneLen(k, ns)
			dumps := x.Lane(k)
			for s := range dumps {
				var acc complex128
				for _, v := range wave[off+s*waveformSPS+skip : off+(s+1)*waveformSPS] {
					acc += v
				}
				dumps[s] = acc / complex(float64(waveformSPS-skip), 0)
			}
		}
	}

	root := tr.begin("kernels", -1, 0)
	var res []ap.UplinkResult
	var demod, xcorr []time.Duration
	ar := dsp.GetArena()
	defer dsp.PutArena(ar)
	budget := time.Now().Add(b.seconds / 20)
	for len(demod) < 5 || (time.Now().Before(budget) && len(demod) < 200) {
		id := tr.begin("ap.demod", root, int64(len(demod)))
		t0 := time.Now()
		res = dem.DemodulateBatchTo(res[:0], rx, waveformSPS)
		demod = append(demod, time.Since(t0))
		tr.end(id)
		id = tr.begin("dsp.xcorr", root, int64(len(xcorr)))
		t0 = time.Now()
		kern.CrossCorrelateBatch(corr, x, ar)
		xcorr = append(xcorr, time.Since(t0))
		tr.end(id)
	}
	tr.end(root)
	okLanes := 0
	for _, r := range res {
		if r.OK() {
			okLanes++
		}
	}
	b.op(okLanes > 0, "kernels: no synthesized frame of %d decoded", lanes)
	fmt.Fprintf(b.out, "kernels: %d frames (%d tag-symbols, %d correlation lanes of up to %d symbols), %d of %d decoded; %d reps\n",
		lanes, symbols, lanes*waveformSPS, maxSyms, okLanes, lanes, len(demod))
	demodNs = durMedian(demod) * 1e9 / float64(symbols)
	xcorrNs = durMedian(xcorr) * 1e9 / float64(lanes*waveformSPS)
	return demodNs, xcorrNs, nil
}
