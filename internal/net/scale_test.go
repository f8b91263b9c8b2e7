package net

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mmtag/internal/frame"
	"mmtag/internal/link"
	"mmtag/internal/par"
	"mmtag/internal/rfmath"
)

// scaleCfg is the shared small-but-mixed test deployment: 32 m cells
// put real population mass in every fidelity tier, and the odd chunk
// size exercises boundary chunks.
func scaleCfg() ScaleConfig {
	return ScaleConfig{
		APs:          9,
		CellM:        32,
		Tags:         800,
		Seed:         4242,
		FramesPerTag: 2,
		chunkSize:    97,
	}
}

func runScale(t *testing.T, cfg ScaleConfig) *ScaleReport {
	t.Helper()
	s, err := NewScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestScaleDeterministicAcrossParallelism is the scale path's core
// reproducibility contract: the report must be byte-identical whether
// chunks run serially, on a pool, or with a different chunk size
// entirely — every tag is a pure function of (seed, index) and the
// per-chunk merge commutes. Chunk size 1 merges once per tag; chunk
// size == Tags merges a single chunk; chunk 0 is the default rule,
// which cuts 800 tags into 2 chunks and 4,096 into 8.
func TestScaleDeterministicAcrossParallelism(t *testing.T) {
	for _, tags := range []int{800, 4096} {
		ref := scaleCfg()
		ref.Tags = tags
		serial := runScale(t, ref)
		for _, tc := range []struct{ workers, chunk int }{
			{8, 97}, {0, 256}, {2, 1}, {8, 1}, {2, tags}, {8, tags},
			{1, 0}, {2, 0}, {8, 0},
		} {
			cfg := ref
			cfg.chunkSize = tc.chunk
			if tc.workers > 0 {
				pool := par.New(par.Config{Workers: tc.workers})
				defer pool.Close()
				cfg.Pool = pool
			}
			if got := runScale(t, cfg); !reflect.DeepEqual(serial, got) {
				t.Fatalf("%d tags, %d workers, chunk %d: report differs from serial chunk 97:\nserial: %+v\ngot:    %+v",
					tags, tc.workers, tc.chunk, serial, got)
			}
		}
	}
}

// TestScaleChunkRule pins the default chunking: a function of Tags
// alone (no other field, the pool included, moves it), 4,096-tag chunks
// for every population of 32,768 or more, at most scaleChunkFanout
// chunks below that, and more than one chunk at 4,096 tags so a small
// Run fans out. A test's chunkSize override is kept.
func TestScaleChunkRule(t *testing.T) {
	pool := par.New(par.Config{Workers: 8})
	defer pool.Close()
	prev := 0
	for _, tags := range []int{
		1, 511, 512, 4095, 4096, 4097, 20000, 32767,
		32768, 32769, 50000, 1_000_000, maxScaleTags,
	} {
		chunk := ScaleConfig{Tags: tags}.withDefaults().chunkSize
		other := ScaleConfig{
			APs: 256, CellM: 8, Tags: tags, FramesPerTag: 9, PayloadBytes: 100,
			Seed: 7, Pool: pool,
		}.withDefaults().chunkSize
		if chunk != other {
			t.Fatalf("%d tags: chunk %d with defaults, %d with other fields set", tags, chunk, other)
		}
		if chunk < prev || chunk < scaleMinChunk || chunk > scaleChunkSize {
			t.Fatalf("%d tags: chunk %d outside [%d,%d] or below the %d of a smaller population",
				tags, chunk, scaleMinChunk, scaleChunkSize, prev)
		}
		prev = chunk
		chunks := (tags + chunk - 1) / chunk
		if tags >= 32768 && chunk != scaleChunkSize {
			t.Fatalf("%d tags: chunk %d, want %d", tags, chunk, scaleChunkSize)
		}
		if tags < 32768 && chunks > scaleChunkFanout {
			t.Fatalf("%d tags: %d chunks, want at most %d", tags, chunks, scaleChunkFanout)
		}
		if tags == 4096 && chunks < 2 {
			t.Fatalf("4096 tags run as %d chunk", chunks)
		}
	}
	if got := (ScaleConfig{Tags: 50000, chunkSize: 97}).withDefaults().chunkSize; got != 97 {
		t.Fatalf("chunkSize override 97 became %d", got)
	}
}

// TestScaleConcurrentRuns holds the ScaleDeployment promise that Run
// may be called concurrently: two Runs on one deployment over one
// shared pool must each produce the serial report.
func TestScaleConcurrentRuns(t *testing.T) {
	serial := runScale(t, scaleCfg())
	pool := par.New(par.Config{Workers: 4})
	defer pool.Close()
	cfg := scaleCfg()
	cfg.Pool = pool
	s, err := NewScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reps [2]*ScaleReport
	var errs [2]error
	var wg sync.WaitGroup
	for g := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[g], errs[g] = s.Run()
		}()
	}
	wg.Wait()
	for g, rep := range reps {
		if errs[g] != nil {
			t.Fatalf("run %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(serial, rep) {
			t.Fatalf("concurrent run %d differs from serial:\nserial: %+v\ngot:    %+v", g, serial, rep)
		}
	}
}

// TestScaleAssignStableUnderReEnumeration pins association (and hence
// tier assignment) against AP-grid re-enumeration: on complete grids,
// on ragged ones (the last row short of APs) and on explicit column
// counts, the neighbourhood scan, the exhaustive forward scan and the
// exhaustive reverse scan must all pick the same AP at the same SNR
// for every sampled position. Beside positions drawn the way tagPos
// draws them, the samples include every cell corner and points just
// either side of it, points spread over the ragged last row, and every
// AP's own position. At a 0.7 m pitch rounding puts some AP rows
// inside the cell south of them (row 3 sits at y = 3*0.7 =
// 2.0999999999999996, and y/0.7 < 3), so a tag standing on such an AP
// is served from the row north of its cell.
func TestScaleAssignStableUnderReEnumeration(t *testing.T) {
	for _, tc := range []struct{ aps, cols int }{
		// Complete grids.
		{1, 0}, {4, 0}, {9, 0}, {16, 0}, {64, 0},
		// Ragged grids with the default near-square columns.
		{7, 0}, {10, 0}, {13, 0}, {17, 0},
		// Explicit columns: ragged, a single column, a single row.
		{5, 3}, {7, 4}, {4, 1}, {5, 5},
	} {
		t.Run(fmt.Sprintf("aps%d_cols%d", tc.aps, tc.cols), func(t *testing.T) {
			for _, cellM := range []float64{32, 0.7} {
				g, err := newGrid(tc.aps, tc.cols, cellM, scaleRate.Mod.Name)
				if err != nil {
					t.Fatal(err)
				}
				fwd := make([]int, tc.aps)
				rev := make([]int, tc.aps)
				for i := range fwd {
					fwd[i] = i
					rev[i] = tc.aps - 1 - i
				}
				check := func(x, y float64) {
					apN, snrN := g.assign(x, y)
					apF, snrF := g.assignFull(x, y, fwd)
					apR, snrR := g.assignFull(x, y, rev)
					if apN != apF || snrN != snrF {
						t.Fatalf("%g m cells, (%.17g,%.17g): neighbourhood (%d,%g) vs full scan (%d,%g)",
							cellM, x, y, apN, snrN, apF, snrF)
					}
					if apF != apR || snrF != snrR {
						t.Fatalf("%g m cells, (%.17g,%.17g): forward scan (%d,%g) vs reverse scan (%d,%g)",
							cellM, x, y, apF, snrF, apR, snrR)
					}
				}
				ps := par.NewStream(4242, 0)
				for i := 0; i < 4000; i++ {
					check(ps.Float64()*g.Width(), 0.5+ps.Float64()*(g.Height()-0.5))
				}
				for r := 0; r <= g.rows; r++ {
					for c := 0; c <= g.cols; c++ {
						x, y := float64(c)*cellM, float64(r)*cellM
						for _, dx := range []float64{-1, 0, 1} {
							for _, dy := range []float64{-1, 0, 1} {
								check(math.Nextafter(x, x+dx), math.Nextafter(y, y+dy))
							}
						}
					}
				}
				last := float64(g.rows-1) * cellM
				for i := 0; i < 1000; i++ {
					check(ps.Float64()*g.Width(), last+ps.Float64()*cellM)
				}
				for a := 0; a < tc.aps; a++ {
					check(g.apX[a], g.apY[a])
				}
			}
		})
	}
}

// TestScaleReportTotalsConsistent checks the report's internal
// arithmetic: per-cell aggregates must sum to the deployment totals,
// every tag lands in exactly one tier, and every frame is accounted
// for as delivered or lost.
func TestScaleReportTotalsConsistent(t *testing.T) {
	rep := runScale(t, scaleCfg())
	var tags, ok, lost int64
	var tier [3]int64
	for _, c := range rep.Cells {
		tags += c.Tags
		ok += c.FramesOK
		lost += c.FramesLost
		for i := range tier {
			tier[i] += c.TierTags[i]
		}
	}
	if tags != int64(rep.Tags) {
		t.Fatalf("cell tags sum %d != population %d", tags, rep.Tags)
	}
	if tier != rep.TierTags {
		t.Fatalf("cell tier sums %v != report %v", tier, rep.TierTags)
	}
	if tier[0]+tier[1]+tier[2] != int64(rep.Tags) {
		t.Fatalf("tier split %v does not cover population %d", tier, rep.Tags)
	}
	if ok != rep.FramesOK || lost != rep.FramesLost {
		t.Fatalf("cell frame sums (%d,%d) != report (%d,%d)", ok, lost, rep.FramesOK, rep.FramesLost)
	}
	if total := rep.FramesOK + rep.FramesLost; total != int64(rep.Tags*rep.FramesPerTag) {
		t.Fatalf("frames %d != tags*framesPerTag %d", total, rep.Tags*rep.FramesPerTag)
	}
	// The 32 m geometry must genuinely exercise the whole ladder.
	for i, n := range rep.TierTags {
		if n == 0 {
			t.Fatalf("tier %v has no population — geometry no longer spans the ladder (%v)",
				link.Tier(i), rep.TierTags)
		}
	}
}

// TestScaleRunAllocsOAPs guards the tentpole memory invariant: resident
// allocation is O(APs), not O(tags). Doubling the population three
// times over must not grow the per-Run allocation count, on the
// all-budget ladder (tier c's per-tag hot path is allocation-free) and
// on an all-symbol ladder (tier b reseeds one chunk-wide generator and
// its fused BER body borrows pooled scratch). The chunked budget case
// runs 21 and 165 chunks: the tier-c bracket table is built once per
// deployment, so the chunk count must not show either. The default
// chunking case straddles the 32,768-tag threshold: 8 chunks of 1,024
// tags against 16 of 4,096.
func TestScaleRunAllocsOAPs(t *testing.T) {
	ladders := []struct {
		name         string
		tiers        link.Thresholds
		chunk        int // 0: one chunk, isolating per-tag from per-chunk cost; -1: the default rule
		small, large int
	}{
		{"budget", link.AllBudget(), 0, 2000, 16000},
		{"budget-chunked", link.AllBudget(), 97, 2000, 16000},
		{"budget-default", link.AllBudget(), -1, 8192, 65536},
		{"symbol", link.Thresholds{WaveformMinDB: math.Inf(1), SymbolMinDB: math.Inf(-1)}, 0, 2000, 16000},
	}
	for _, l := range ladders {
		if (l.name == "symbol" || l.chunk != 0) && raceEnabled {
			// Under -race sync.Pool sheds at random: tier b's arena
			// pool, and the chunk working sets, one Get per chunk.
			continue
		}
		allocsFor := func(tags int) float64 {
			chunk := l.chunk
			switch chunk {
			case 0:
				chunk = tags
			case -1:
				chunk = 0
			}
			cfg := ScaleConfig{
				APs: 9, CellM: 32,
				Tags: tags, Seed: 4242,
				FramesPerTag: 2,
				chunkSize:    chunk,
				Tiers:        &l.tiers,
			}
			s, err := NewScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		small := allocsFor(l.small)
		large := allocsFor(l.large)
		if large > small+8 {
			t.Fatalf("%s ladder: allocations scale with population: %.0f allocs at %d tags vs %.0f at %d",
				l.name, small, l.small, large, l.large)
		}
	}
}

// A steady-state Run on the default ladder must not regrow its tier-a
// and tier-b working sets per chunk: the pooled engines keep their
// staging batches, demodulator scratch and RNG across chunks and Runs,
// so a 4,096-tag Run (the BenchmarkScaleRun/ladder shape) allocates
// well under the 23 MB it took when every chunk built its own.
func TestScaleRunLadderBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds at random under the race detector")
	}
	tiers := link.DefaultThresholds()
	s, err := NewScale(ScaleConfig{
		APs: 16, CellM: 32, Tags: 4096, FramesPerTag: 4,
		Tiers: &tiers, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // warm the engine and arena pools
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 6 << 20
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("steady-state ladder Run: %d bytes", got)
	if got > limit {
		t.Fatalf("steady-state ladder Run allocates %d bytes, want under %d", got, limit)
	}
}

// A chunk that returns early (an engine error mid-stage or mid-flush)
// must not hand its staged frames or deferred tallies to the next
// chunk that borrows the same pooled working set.
func TestChunkEnginesResetOnPut(t *testing.T) {
	e := chunkEnginesPool.Get().(*chunkEngines)
	if e.wav == nil {
		e.wav = link.NewWaveform()
	}
	if err := e.wav.StageFrame(&e.batch, ProbeRate(), 1e3, 8, e.reseed(1)); err != nil {
		t.Fatal(err)
	}
	e.deferred = append(e.deferred, deferredTag{ap: 3, snrDB: 40})
	putChunkEngines(e)
	if e.batch.Len() != 0 || len(e.deferred) != 0 {
		t.Fatalf("returned working set still holds %d staged frames and %d deferred tags",
			e.batch.Len(), len(e.deferred))
	}
}

// TestScaleCalibrationMatchesLinkBudget is the net-level leg of the
// calibration suite: the deployment's aggregate tier-c frame outcomes
// must agree with the sum of each tag's closed-form success
// probability (Poisson-binomial mean/variance, ZThreshold sigma).
func TestScaleCalibrationMatchesLinkBudget(t *testing.T) {
	tiers := link.AllBudget()
	cfg := scaleCfg()
	cfg.Tags = 3000
	cfg.FramesPerTag = 4
	cfg.Tiers = &tiers
	s, err := NewScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var bud link.Budget
	mean, variance := 0.0, 0.0
	for i := 0; i < cfg.Tags; i++ {
		_, snrDB, _ := s.TagAssignment(i)
		p := bud.SuccessProb(scaleRate, rfmath.FromDB(snrDB)*scaleSNRScale, s.airBits)
		mean += float64(cfg.FramesPerTag) * p
		variance += float64(cfg.FramesPerTag) * p * (1 - p)
	}
	if variance < 25 {
		t.Fatalf("test point not informative: variance %g too small", variance)
	}
	z := math.Abs(float64(rep.FramesOK)-mean) / math.Sqrt(variance)
	if z > link.ZThreshold {
		t.Fatalf("deployment delivered %d frames vs closed-form expectation %.1f (sigma %.1f): z=%.1f",
			rep.FramesOK, mean, math.Sqrt(variance), z)
	}
}

// TestScaleBudgetMatchesReferenceLoop holds the tier-c bracket table
// to the outcomes it replaces: on the all-budget ladder, Run's report
// must equal one built by a plain per-frame loop that compares every
// draw of each tag's stream against the closed-form SuccessProb.
func TestScaleBudgetMatchesReferenceLoop(t *testing.T) {
	tiers := link.AllBudget()
	var bud link.Budget
	for seed := int64(1); seed <= 5; seed++ {
		for _, frames := range []int{1, 2, 4, 7} {
			cfg := scaleCfg()
			cfg.Tags = 3000
			cfg.Seed = seed
			cfg.FramesPerTag = frames
			cfg.Tiers = &tiers
			s, err := NewScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := make([]ScaleCell, cfg.APs)
			for a := range want {
				want[a].AP = a
			}
			for i := 0; i < cfg.Tags; i++ {
				x, y := s.tagPos(i)
				a, snr := s.assign(x, y)
				p := bud.SuccessProb(scaleRate, snr*scaleSNRScale, s.airBits)
				st := par.NewStream(seed, streamScaleLinkBase+uint64(link.TierBudget)*scaleTierStride+uint64(i))
				c := &want[a]
				c.Tags++
				c.TierTags[link.TierBudget]++
				c.SNRSumMilliDB += int64(math.Round(10 * math.Log10(snr) * 1000))
				for f := 0; f < frames; f++ {
					if st.Float64() < p {
						c.FramesOK++
					} else {
						c.FramesLost++
					}
				}
			}
			if !reflect.DeepEqual(rep.Cells, want) {
				t.Fatalf("seed %d, %d frames/tag: Run's cells differ from the reference loop:\nrun:  %+v\nwant: %+v",
					seed, frames, rep.Cells, want)
			}
		}
	}
}

// FuzzTierSelection-style coverage for the scale geometry lives in
// internal/link; here we fuzz the association clamp path indirectly by
// asserting TagAssignment is total over the index space.
func TestScaleTagAssignmentTotal(t *testing.T) {
	s, err := NewScale(scaleCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 799, 800, 12345} {
		ap, snrDB, tier := s.TagAssignment(i)
		if ap < 0 || ap >= s.cfg.APs {
			t.Fatalf("tag %d assigned to invalid AP %d", i, ap)
		}
		if math.IsNaN(snrDB) {
			t.Fatalf("tag %d has NaN association SNR", i)
		}
		if tier < link.TierWaveform || tier > link.TierBudget {
			t.Fatalf("tag %d has invalid tier %d", i, tier)
		}
	}
}

// TestScaleConfigValidation covers NewScale's error paths. A cell
// pitch that is negative, NaN or infinite must fail here, not as a
// position assigned to AP -1 inside Run.
func TestScaleConfigValidation(t *testing.T) {
	for _, cfg := range []ScaleConfig{
		{APs: 0, Tags: 10},
		{APs: 4, Tags: 0},
		{APs: 4, Tags: 10, FramesPerTag: -1},
		{APs: 4, Tags: 10, CellM: -8},
		{APs: 4, Tags: 10, CellM: math.NaN()},
		{APs: 4, Tags: 10, CellM: math.Inf(1)},
	} {
		if _, err := NewScale(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

// TestScalePayloadBounds holds NewScale to the payloads a frame can
// carry: 0 selects the 32-byte default and 1..frame.MaxPayload run,
// while a negative payload (which would deliver negative bits) and one
// past frame.MaxPayload (which only tiers a and b would refuse, inside
// Run) fail at construction.
func TestScalePayloadBounds(t *testing.T) {
	tiers := link.AllBudget()
	for _, tc := range []struct {
		payload, want int // want: the effective payload, or -1 for an error
	}{
		{-5, -1}, {-1, -1}, {0, 32}, {1, 1}, {frame.MaxPayload, frame.MaxPayload},
		{frame.MaxPayload + 1, -1}, {1 << 20, -1},
	} {
		s, err := NewScale(ScaleConfig{APs: 4, Tags: 10, PayloadBytes: tc.payload, Tiers: &tiers, Seed: 1})
		if tc.want < 0 {
			if err == nil {
				t.Errorf("payload %d accepted, want error", tc.payload)
			}
			continue
		}
		if err != nil {
			t.Fatalf("payload %d: %v", tc.payload, err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("payload %d: %v", tc.payload, err)
		}
		if rep.PayloadBytes != tc.want || rep.DeliveredBits != rep.FramesOK*int64(tc.want)*8 ||
			rep.AirBits <= tc.want*8 {
			t.Errorf("payload %d: report payload %d, %d air bits, %d bits from %d frames",
				tc.payload, rep.PayloadBytes, rep.AirBits, rep.DeliveredBits, rep.FramesOK)
		}
	}
}
