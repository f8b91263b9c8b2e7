package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mmtag/internal/net"
	"mmtag/internal/par"
	"mmtag/internal/router"
	"mmtag/internal/serve"
)

const (
	fleetAPs    = 8
	fleetTags   = 64
	fleetShards = 2
	// fleetPrograms is the router, the shards and the load generator.
	fleetPrograms = fleetShards + 2
	// The two fixed open-loop rates, requests per second.
	lightRate = 200.0
	heavyRate = 1000.0
	// okWithin is the latency limit a read must meet to count as served.
	okWithin = 25 * time.Millisecond
	// reqTimeout bounds one request; past it the request has failed.
	reqTimeout = 2 * time.Second
	// fleetSetups is how many times a run starts the fleet to time
	// set-up; the last fleet serves the load.
	fleetSetups = 5
	// fleetSeed is the deployment every run reads: mmtag-serve's default
	// seed. The workload seed drives the read mix only, so runs with
	// different seeds load one fleet with different request streams.
	fleetSeed = 42
	// mixStream seeds the route mix.
	mixStream uint64 = 11 << 40
)

// fleetMix is the default mmtag-load route mix.
var fleetMix = []struct {
	route  string
	weight int
}{{"tags", 2}, {"tag", 4}, {"report", 1}, {"status", 1}}

// fleetNet is the fleet deployment every shard slices: mmtag-serve's
// defaults on the 8-AP/64-tag fleet shape.
func fleetNet(seed int64) net.Config {
	return net.Config{APs: fleetAPs, Tags: fleetTags, Seed: seed, Duration: 0.2, Epochs: 4, MobileFrac: 0.25}
}

// shardWorkers sizes each shard's epoch pool so the fleet's epoch
// workers together number nproc.
func shardWorkers(nproc int) int { return max(1, nproc/fleetShards) }

// fleet is a router in front of its shards, all in this process.
type fleet struct {
	shards []*serve.Daemon
	rt     *router.Router
}

func startFleet(seed int64, nproc int) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < fleetShards; i++ {
		d, err := serve.Start(serve.Config{
			Addr:    "127.0.0.1:0",
			Net:     fleetNet(seed),
			Shard:   net.ShardSpec{Index: i, Count: fleetShards},
			Workers: shardWorkers(nproc),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.shards = append(f.shards, d)
		urls = append(urls, d.URL())
	}
	rt, err := router.Start(router.Config{Addr: "127.0.0.1:0", Shards: urls, APs: fleetAPs, Tags: fleetTags})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	return f, nil
}

func (f *fleet) close() {
	if f.rt != nil {
		f.rt.Close()
	}
	for _, d := range f.shards {
		d.Close()
	}
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls until the router reports every shard up and every
// shard has published epoch 1 or later.
func (f *fleet) waitReady(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var rs struct {
			ShardsOK int `json:"shards_ok"`
		}
		ready := getJSON(c, f.rt.URL()+"/v1/status", &rs) == nil && rs.ShardsOK == fleetShards
		for _, d := range f.shards {
			var ss struct {
				Epoch int `json:"epoch"`
			}
			if !ready || getJSON(c, d.URL()+"/v1/status", &ss) != nil || ss.Epoch < 1 {
				ready = false
				break
			}
		}
		if ready {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("fleet not ready within 30s")
}

// newClient returns a client holding at most conns keep-alive
// connections per host.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: reqTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// request is one scheduled read.
type request struct {
	route string
	path  string
	tag   int // the tag ID a tag read asks for
}

// mix draws n requests from the route mix; tag reads pick an ID in
// (lo, hi].
func mix(rng *rand.Rand, n, lo, hi int) []request {
	total := 0
	for _, m := range fleetMix {
		total += m.weight
	}
	out := make([]request, n)
	for i := range out {
		k := rng.Intn(total)
		for _, m := range fleetMix {
			if k < m.weight {
				out[i].route = m.route
				break
			}
			k -= m.weight
		}
		switch out[i].route {
		case "tag":
			out[i].tag = lo + 1 + rng.Intn(hi-lo)
			out[i].path = "/v1/tags/" + strconv.Itoa(out[i].tag)
		default:
			out[i].path = "/v1/" + out[i].route
		}
	}
	return out
}

// epochObs is one response's view of a shard's snapshot epoch and
// config generation.
type epochObs struct {
	key        string // shard, and whether the value is the router's cached view
	sent, done time.Duration
	epoch, gen int64
	sample     int
}

// target is where a phase sends its reads: the router, or one shard
// owning tag IDs (lo, hi].
type target struct {
	base   string
	router bool
	shard  int
	lo, hi int
}

// shardMeta is the per-shard slot of a scatter-gather answer.
type shardMeta struct {
	Shard int   `json:"shard"`
	OK    bool  `json:"ok"`
	Epoch int64 `json:"epoch"`
	Gen   int64 `json:"config_generation"`
	Up    bool  `json:"up"`
}

// readBody is the union of every read route's body fields.
type readBody struct {
	Epoch  int64       `json:"epoch"`
	Gen    int64       `json:"config_generation"`
	Shards []shardMeta `json:"shards"`
	State  string      `json:"state"`
	Tags   []struct {
		ID int `json:"id"`
	} `json:"tags"`
	Tag *struct {
		ID int `json:"id"`
	} `json:"tag"`
	Report *struct {
		APs  int `json:"aps"`
		Tags int `json:"tags"`
	} `json:"report"`
	Shard *struct {
		Index int `json:"index"`
	} `json:"shard"`
}

// read performs one request and checks its answer. It fills s's
// outcome and returns the epoch observations the body carried.
func read(c *http.Client, tg target, rq request, s *sample) []epochObs {
	s.route = rq.route
	resp, err := c.Get(tg.base + rq.path)
	if err != nil {
		s.failed, s.why = true, err.Error()
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.failed, s.why = true, err.Error()
		return nil
	}
	switch code := resp.StatusCode; {
	case code == http.StatusTooManyRequests:
		s.miss = true
		return nil
	case code == http.StatusOK || (code == http.StatusMultiStatus && tg.router):
	default:
		s.failed, s.why = true, fmt.Sprintf("%s: status %d", rq.path, code)
		return nil
	}
	var b readBody
	if err := json.Unmarshal(body, &b); err != nil {
		s.failed, s.why = true, fmt.Sprintf("%s: body does not parse: %v", rq.path, err)
		return nil
	}
	partial := resp.StatusCode == http.StatusMultiStatus
	var obs []epochObs
	note := func(key string, epoch, gen int64) {
		obs = append(obs, epochObs{key: key, epoch: epoch, gen: gen})
	}
	why := ""
	switch rq.route {
	case "tags":
		lo, hi := tg.lo, tg.hi
		seen := make(map[int]int, len(b.Tags))
		for _, t := range b.Tags {
			seen[t.ID]++
			if seen[t.ID] > 1 || t.ID <= lo || t.ID > hi {
				why = fmt.Sprintf("tag %d listed twice or outside (%d,%d]", t.ID, lo, hi)
			}
		}
		if !partial && len(seen) != hi-lo {
			why = fmt.Sprintf("non-partial tag list holds %d distinct IDs, want %d", len(seen), hi-lo)
		}
		s.tags = len(b.Tags)
	case "tag":
		if b.Tag == nil || b.Tag.ID != rq.tag {
			why = fmt.Sprintf("asked for tag %d, got %+v", rq.tag, b.Tag)
		}
		s.tags = 1
	case "report":
		if b.Report == nil {
			why = "report body has no report"
		} else if tg.router && !partial && (b.Report.Tags != fleetTags || b.Report.APs != fleetAPs) {
			why = fmt.Sprintf("fleet report covers %d APs and %d tags", b.Report.APs, b.Report.Tags)
		}
	case "status":
		if b.State != "serving" {
			why = fmt.Sprintf("state %q", b.State)
		}
		if !tg.router && (b.Shard == nil || b.Shard.Index != tg.shard) {
			why = "status names another shard"
		}
	}
	switch {
	case !tg.router:
		note(strconv.Itoa(tg.shard), b.Epoch, b.Gen)
	case rq.route == "status":
		for _, sm := range b.Shards {
			if sm.Up {
				note("probe/"+strconv.Itoa(sm.Shard), sm.Epoch, sm.Gen)
			}
		}
	case rq.route == "tag" && !partial:
		note(resp.Header.Get("X-Mmtag-Shard"), b.Epoch, b.Gen)
	default:
		for _, sm := range b.Shards {
			if sm.OK {
				note(strconv.Itoa(sm.Shard), sm.Epoch, sm.Gen)
			}
		}
	}
	if why != "" {
		s.failed, s.why = true, rq.path+": "+why
		return nil
	}
	if partial {
		s.miss = true
		return obs
	}
	s.ok = true
	return obs
}

// checkMonotone marks every sample that saw a shard's epoch or config
// generation go backwards: an answer must not be older than any answer
// from the same source that completed before it was sent.
func checkMonotone(samples []sample, obs []epochObs) {
	byKey := make(map[string][]epochObs)
	for _, o := range obs {
		byKey[o.key] = append(byKey[o.key], o)
	}
	for _, list := range byKey {
		bySent := append([]epochObs(nil), list...)
		sort.Slice(bySent, func(i, j int) bool { return bySent[i].sent < bySent[j].sent })
		byDone := list
		sort.Slice(byDone, func(i, j int) bool { return byDone[i].done < byDone[j].done })
		var maxEpoch, maxGen int64
		k := 0
		for _, o := range bySent {
			for k < len(byDone) && byDone[k].done < o.sent {
				maxEpoch = max(maxEpoch, byDone[k].epoch)
				maxGen = max(maxGen, byDone[k].gen)
				k++
			}
			if o.epoch < maxEpoch || o.gen < maxGen {
				s := &samples[o.sample]
				if !s.failed {
					s.failed = true
					s.ok = false
					s.why = fmt.Sprintf("shard %s went back to epoch %d generation %d after %d/%d was served",
						o.key, o.epoch, o.gen, maxEpoch, maxGen)
				}
			}
		}
	}
}

// phase is one open-loop run against a target.
type phase struct {
	samples []sample
	wall    time.Duration
}

// runPhase sends rate×dur requests from the seeded mix to each target
// in parallel (the rate and the nproc connections split evenly across
// targets), checks every answer and the epoch invariant, and records
// spans into tracers (one per worker) when tracers is non-nil.
func runPhase(b *bench, rng *rand.Rand, targets []target, rate float64, dur time.Duration,
	layer string, tracers []*tracer) phase {
	per := rate / float64(len(targets))
	n := int(per * dur.Seconds())
	conns := max(1, b.nproc/len(targets))
	results := make([]phase, len(targets))
	var wg sync.WaitGroup
	for ti, tg := range targets {
		reqs := mix(rng, n, tg.lo, tg.hi)
		wg.Add(1)
		go func(ti int, tg target, reqs []request) {
			defer wg.Done()
			c := newClient(conns)
			defer c.CloseIdleConnections()
			obs := make([][]epochObs, n)
			start := time.Now()
			samples := openLoop(start, n, per, conns, time.Second, func(w, i int, s *sample) {
				obs[i] = read(c, tg, reqs[i], s)
				if tracers != nil {
					tr, req := tracers[ti*conns+w], int64(ti*n+i)
					due, sent, now := start.Add(s.due), start.Add(s.sent), time.Now()
					root := tr.add("request", -1, req, due, now)
					tr.add("loadgen.wait", root, req, due, sent)
					tr.add(layer+"."+reqs[i].route, root, req, sent, now)
				}
			})
			var flat []epochObs
			for i, list := range obs {
				for _, o := range list {
					o.sent, o.done, o.sample = samples[i].sent, samples[i].done, i
					flat = append(flat, o)
				}
			}
			checkMonotone(samples, flat)
			results[ti] = phase{samples: samples, wall: time.Since(start)}
		}(ti, tg, reqs)
	}
	wg.Wait()
	var all phase
	for _, r := range results {
		all.samples = append(all.samples, r.samples...)
		all.wall = max(all.wall, r.wall)
	}
	for _, s := range all.samples {
		b.op(!s.failed, "%s read %s", layer, s.why)
	}
	return all
}

// latencies returns the due-to-done latencies (ms) of ph's samples.
func latencies(ph phase) []float64 {
	out := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		out[i] = ms(s.latency())
	}
	return out
}

// serviceTimes returns the sent-to-done times (ms) of the samples whose
// route is in routes.
func serviceTimes(ph phase, routes ...string) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if contains(routes, s.route) {
			out = append(out, ms(s.done-s.sent))
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// epochWatch records each shard's snapshot publications while a phase
// runs. Daemon.Snapshot is the snapshot /v1/status reports the epoch
// of; reading it in-process also gives the publish time, which the
// status body does not carry, so the rate needs no polling precision.
type epochWatch struct {
	stop, done chan struct{}
	epochs     [][]int       // per shard, the epochs seen
	at         [][]time.Time // and when each was published
}

func watchEpochs(f *fleet) *epochWatch {
	w := &epochWatch{
		stop: make(chan struct{}), done: make(chan struct{}),
		epochs: make([][]int, len(f.shards)), at: make([][]time.Time, len(f.shards)),
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			for i, d := range f.shards {
				s := d.Snapshot()
				if n := len(w.epochs[i]); n == 0 || w.epochs[i][n-1] != s.Epoch {
					w.epochs[i] = append(w.epochs[i], s.Epoch)
					w.at[i] = append(w.at[i], s.TakenAt)
				}
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// finish stops the watch and returns the fleet's epoch rate: the sum
// over shards of 1 / the median epoch period, with the epoch counts it
// rests on.
func (w *epochWatch) finish() (rate float64, counts []int) {
	close(w.stop)
	<-w.done
	for i := range w.epochs {
		var periods []float64
		for k := 1; k < len(w.epochs[i]); k++ {
			dt := w.at[i][k].Sub(w.at[i][k-1]).Seconds()
			periods = append(periods, dt/float64(w.epochs[i][k]-w.epochs[i][k-1]))
		}
		counts = append(counts, len(periods))
		if len(periods) > 0 {
			rate += 1 / median(periods)
		}
	}
	return rate, counts
}

func runFleet(b *bench) error {
	rng := rand.New(rand.NewSource(par.Derive(b.seed, mixStream)))
	ctl := newClient(1)
	defer ctl.CloseIdleConnections()
	fmt.Fprintf(b.out, "input: %d-AP/%d-tag fleet, %d shards (%d epoch workers each) behind the router; open loop, mix %v, light %g/s, heavy %g/s, %d connections\n",
		fleetAPs, fleetTags, fleetShards, shardWorkers(b.nproc), fleetMix, lightRate, heavyRate, b.nproc)
	start := time.Now()

	var setups []time.Duration
	var f *fleet
	rounds := fleetSetups
	if b.traced {
		rounds = 1
	}
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		var err error
		f, err = startFleet(fleetSeed, b.nproc)
		if err != nil {
			return err
		}
		err = f.waitReady(ctl)
		setups = append(setups, time.Since(t0))
		b.op(err == nil, "fleet set-up: %v", err)
		if err != nil {
			f.close()
			return err
		}
		if i < rounds-1 {
			f.close()
			// Collect the closed fleet so its garbage does not set the
			// serving fleet's peak RSS.
			runtime.GC()
		}
	}
	defer f.close()
	rt := target{base: f.rt.URL(), router: true, lo: 0, hi: fleetTags}
	specs, err := net.PartitionDeployment(fleetAPs, fleetTags, fleetShards)
	if err != nil {
		return err
	}
	var direct []target
	for i, sp := range specs {
		direct = append(direct, target{base: f.shards[i].URL(), shard: i, lo: sp.TagBase, hi: sp.TagBase + sp.TagCount})
	}

	runPhase(b, rng, []target{rt}, lightRate, 500*time.Millisecond, "warmup", nil)
	if b.traced {
		return traceFleet(b, rng, f, rt, direct, ctl, time.Since(start))
	}

	// Epochs are timed in the light phase: at the heavy rate the epoch
	// loops get what the request path leaves of the cores, which
	// multiplies any drift in the host's speed into the epoch rate.
	left := b.seconds - time.Since(start)
	watch := watchEpochs(f)
	light := runPhase(b, rng, []target{rt}, lightRate, left*25/100, "router", nil)
	epochRate, periods := watch.finish()
	heavy := runPhase(b, rng, []target{rt}, heavyRate, left*65/100, "router", nil)

	ld := newDist(latencies(light))
	hd := newDist(latencies(heavy))
	ld.describe(b.out, fmt.Sprintf("light read (%g/s, from due time)", lightRate))
	hd.describe(b.out, fmt.Sprintf("heavy read (%g/s, from due time)", heavyRate))
	newDist(lateness(heavy)).describe(b.out, "heavy generator lateness")
	okFrac := func(ph phase) float64 {
		ok := 0
		for _, s := range ph.samples {
			if s.ok && s.latency() <= okWithin {
				ok++
			}
		}
		return float64(ok) / float64(len(ph.samples))
	}
	tags := 0
	for _, s := range heavy.samples {
		if s.ok {
			tags += s.tags
		}
	}
	p50 := func(ph phase) float64 { return newDist(latencies(ph)).p(50) }
	lightP50 := windowMedian(b, "light p50 (ms)", light, p50)
	heavyOK := windowMedian(b, fmt.Sprintf("heavy share ok within %s", okWithin), heavy, okFrac)
	fmt.Fprintf(b.out, "heavy: %.4f of %d reads were non-partial 2xx within %s; light: epoch periods seen per shard %v\n",
		okFrac(heavy), len(heavy.samples), okWithin, periods)

	b.set("setup_s", durMedian(setups))
	b.set("tags_per_s", float64(tags)/heavy.wall.Seconds())
	b.set("light_read_p50_ms", lightP50)
	b.set("read_ok_frac", heavyOK)
	b.set("epochs_per_s", epochRate)
	return nil
}

// fleetWindows is how many equal stretches of due time a phase's
// latency metrics are taken over. Each metric is the median of its
// per-window values, so host contention confined to a window or two
// does not move it.
const fleetWindows = 8

// windowMedian splits ph's samples (in due order) into fleetWindows
// windows, prints f of each, and returns their median.
func windowMedian(b *bench, name string, ph phase, f func(phase) float64) float64 {
	n := len(ph.samples)
	vals := make([]float64, fleetWindows)
	for i := range vals {
		vals[i] = f(phase{samples: ph.samples[i*n/fleetWindows : (i+1)*n/fleetWindows]})
	}
	fmt.Fprintf(b.out, "windows of %d reads, %s: %.4g\n", n/fleetWindows, name, vals)
	return median(vals)
}

// lateness returns how late (ms) the generator sent each request.
func lateness(ph phase) []float64 {
	out := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		out[i] = ms(s.late())
	}
	return out
}

// scrapeSum sums every sample of the named counter family in a shard's
// Prometheus text exposition.
func scrapeSum(c *http.Client, url string, families ...string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, fam := range families {
			if strings.HasPrefix(line, fam+"{") || strings.HasPrefix(line, fam+" ") {
				fields := strings.Fields(line)
				v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
				if err == nil {
					out[fam] += v
				}
			}
		}
	}
	return out, sc.Err()
}

// shedCounts sums serve_shed_total and serve_requests_total over the
// shards.
func shedCounts(c *http.Client, f *fleet) (shed, total float64, err error) {
	for _, d := range f.shards {
		m, err := scrapeSum(c, d.URL(), "serve_shed_total", "serve_requests_total")
		if err != nil {
			return 0, 0, err
		}
		shed += m["serve_shed_total"]
		total += m["serve_requests_total"]
	}
	return shed, total, nil
}

func traceFleet(b *bench, rng *rand.Rand, f *fleet, rt target, direct []target, ctl *http.Client, used time.Duration) error {
	slot := (b.seconds - used) * 22 / 100
	shed0, total0, err := shedCounts(ctl, f)
	if err != nil {
		return err
	}
	epoch := time.Now()
	newTracers := func(n int) []*tracer {
		ts := make([]*tracer, n)
		for i := range ts {
			ts[i] = newTracer(epoch)
		}
		return ts
	}
	// Direct reads first: the shards' own latency for the same routes.
	dtr := newTracers(b.nproc)
	dph := runPhase(b, rng, direct, heavyRate, slot, "serve", dtr)
	// The router, untraced and then traced.
	plain := runPhase(b, rng, []target{rt}, heavyRate, slot, "router", nil)
	rtr := newTracers(b.nproc)
	traced := runPhase(b, rng, []target{rt}, heavyRate, slot, "router", rtr)
	shed1, total1, err := shedCounts(ctl, f)
	if err != nil {
		return err
	}

	// Offline: one shard's deployment stepped with no HTTP load, and
	// fresh snapshots of it rendered.
	otr := newTracer(epoch)
	stepMs, tagsUs, reportUs, err := timeShardOffline(b, otr)
	if err != nil {
		return err
	}

	all := newTracer(epoch)
	for _, t := range append(dtr, rtr...) {
		all.merge(t)
	}
	rtrAll := newTracer(epoch)
	for _, t := range rtr {
		rtrAll.merge(t)
	}
	lt := rtrAll.selfTimes()
	var base time.Duration
	if l := lt["request"]; l != nil {
		base = l.Total
	}
	layerSum := printLayers(b.out, "traced router phase, base = summed request time", lt, base)
	all.merge(otr)
	path, err := all.writeSpans(fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(all.spans), path)

	reads := []string{"tags", "tag", "report"}
	newDist(serviceTimes(dph, reads...)).describe(b.out, "direct shard reads (sent to done)")
	newDist(serviceTimes(traced, reads...)).describe(b.out, "router reads (sent to done)")
	pd, td := newDist(latencies(plain)), newDist(latencies(traced))
	pd.describe(b.out, "untraced router phase (from due time)")
	td.describe(b.out, "traced router phase (from due time)")
	overhead := (td.p(50) - pd.p(50)) / pd.p(50)
	fmt.Fprintf(b.out, "tracing overhead: %+.2f%% of the untraced p50 %.3fms (traced p50 %.3fms)\n",
		100*overhead, pd.p(50), td.p(50))

	partial, routed := 0, 0
	for _, s := range traced.samples {
		if s.route != "status" {
			routed++
			if s.miss {
				partial++
			}
		}
	}
	shedFrac := 0.0
	if total1 > total0 {
		shedFrac = (shed1 - shed0) / (total1 - total0)
	}
	fmt.Fprintf(b.out, "router: %d of %d reads degraded (207/429); shards shed %g of %g requests\n",
		partial, routed, shed1-shed0, total1-total0)

	p50 := func(xs []float64) float64 { return newDist(xs).p(50) }
	b.set("router.read_p50_ms", pd.p(50))
	b.set("router.read_p99_ms", pd.p(99))
	b.set("router.scatter_ms_p50", p50(serviceTimes(traced, "tags", "report")))
	b.set("router.pinned_ms_p50", p50(serviceTimes(traced, "tag")))
	b.set("router.self_ms_p50", p50(serviceTimes(traced, reads...))-p50(serviceTimes(dph, reads...)))
	b.set("router.partial_frac", float64(partial)/float64(max(routed, 1)))
	b.set("serve.shed_frac", shedFrac)
	b.set("serve.tags_ms_p50", p50(serviceTimes(dph, "tags")))
	b.set("serve.tag_ms_p50", p50(serviceTimes(dph, "tag")))
	b.set("serve.report_ms_p50", p50(serviceTimes(dph, "report")))
	b.set("serve.render_tags_us", tagsUs)
	b.set("serve.render_report_us", reportUs)
	b.set("net.epoch_step_ms", stepMs)
	b.set("loadgen.late_ms_p99", newDist(lateness(traced)).p(99))
	b.set("trace.overhead_frac", overhead)
	b.set("trace.layer_sum_frac", layerSum)
	return nil
}

// timeShardOffline builds a deployment identical to shard 0, times
// Runner.Step with no HTTP load, and times rendering fresh snapshots of
// the stepped deployment. It returns the median step (ms) and the
// median TagsJSON and ReportJSON renders (µs).
func timeShardOffline(b *bench, tr *tracer) (stepMs, tagsUs, reportUs float64, err error) {
	specs, err := net.PartitionDeployment(fleetAPs, fleetTags, fleetShards)
	if err != nil {
		return 0, 0, 0, err
	}
	cfg := specs[0].Slice(fleetNet(fleetSeed))
	pool := par.New(par.Config{Workers: shardWorkers(b.nproc)})
	defer pool.Close()
	cfg.Pool = pool
	dep, err := net.New(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	runner := dep.Runner(256)
	root := tr.begin("offline", -1, 0)
	var steps []time.Duration
	for i := 0; i < 4; i++ {
		id := tr.begin("net.epoch_step", root, int64(i))
		t0 := time.Now()
		err := runner.Step()
		steps = append(steps, time.Since(t0))
		tr.end(id)
		b.op(err == nil, "epoch step: %v", err)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	report, tags := runner.Snapshot(), dep.TagStates()
	fresh := func() *serve.Snapshot {
		return &serve.Snapshot{Epoch: runner.Epochs(), TakenAt: time.Now(), Report: report, Tags: tags}
	}
	ctx := context.Background()
	var tagsT, reportT []time.Duration
	budget := time.Now().Add(b.seconds / 20)
	for len(tagsT) < 20 || (time.Now().Before(budget) && len(tagsT) < 5000) {
		s := fresh()
		id := tr.begin("serve.render_tags", root, int64(len(tagsT)))
		t0 := time.Now()
		body, err := s.TagsJSON(ctx)
		tagsT = append(tagsT, time.Since(t0))
		tr.end(id)
		b.op(err == nil && json.Valid(body), "render tags: %v", err)
		s = fresh()
		id = tr.begin("serve.render_report", root, int64(len(reportT)))
		t0 = time.Now()
		body, err = s.ReportJSON(ctx)
		reportT = append(reportT, time.Since(t0))
		tr.end(id)
		b.op(err == nil && json.Valid(body), "render report: %v", err)
	}
	tr.end(root)
	fmt.Fprintf(b.out, "offline shard 0: %d epoch steps, %d renders of each view\n", len(steps), len(tagsT))
	return durMedian(steps[1:]) * 1e3, durMedian(tagsT) * 1e6, durMedian(reportT) * 1e6, nil
}
