package mac_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mmtag/internal/fault"
	"mmtag/internal/frame"
	"mmtag/internal/mac"
	"mmtag/internal/rfmath"
)

// stepMedium is a deterministic Medium whose answers move every time
// the test advances it: each tag's SNR swings through rates that meet
// the PER target, rates that do not (degraded picks) and silence. Tag 7
// hears one rate at a time at a fixed SNR, coded OOK on even steps and
// coded BPSK on odd ones, so its attempts repeat their SNR bits across
// a rate change. Tag 8 answers discovery and then falls silent, so its
// first ladder walk is all zeros.
type stepMedium struct {
	ids  []uint8
	step int
}

func (m *stepMedium) Tags() []uint8 { return append([]uint8(nil), m.ids...) }

func (m *stepMedium) SNR(id uint8, _ float64, r mac.Rate) (float64, bool) {
	if id == 8 && m.step > 0 {
		return 0, false
	}
	if id == 7 {
		usable := mac.DefaultRateTable()[2*(m.step%2)]
		if r.String() != usable.String() {
			return 0, false
		}
		return rfmath.FromDB(6), true
	}
	db := 3*float64(id) - 4 + 14*math.Sin(0.9*float64(m.step)+float64(id))
	if db < -12 {
		return 0, false
	}
	return rfmath.FromDB(db) * 10e6 / r.SymbolRate(), true
}

func pollConfig() mac.StationConfig {
	return mac.StationConfig{Beams: []float64{0}, TargetPER: 0.01, MaxRetries: 3, PollPayloadBytes: 64}
}

// refPoll is Station.Poll written out with PickRate and FramePER called
// afresh on every poll, for a station without health tracking or a
// frame engine.
func refPoll(cfg mac.StationConfig, m mac.Medium, rng *rand.Rand, rec mac.TagRecord, st *mac.Stats) (mac.PollResult, error) {
	airBits := frame.AirBits(cfg.PollPayloadBytes, frame.Options{})
	rate, degraded, err := mac.PickRate(cfg.RateTable, cfg.TargetPER, airBits, func(r mac.Rate) float64 {
		snr, audible := m.SNR(rec.ID, rec.BeamRad, r)
		if !audible {
			return 0
		}
		return snr
	})
	if err != nil {
		return mac.PollResult{}, err
	}
	res := mac.PollResult{TagID: rec.ID, Rate: rate, SNRdB: math.Inf(-1), Degraded: degraded}
	if degraded {
		st.DegradedPicks++
	}
	ack, _ := m.(mac.AckLossMedium)
	airBits = frame.AirBits(cfg.PollPayloadBytes, frame.Options{Coded: rate.Coded})
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		res.Attempts++
		res.AirTime += float64(airBits) / rate.BitRate
		snr, audible := m.SNR(rec.ID, rec.BeamRad, rate)
		if audible {
			res.SNRdB = 10 * math.Log10(snr)
			if rng.Float64() >= rate.FramePER(snr, airBits) {
				if !res.Delivered {
					res.Delivered = true
					res.Bits = cfg.PollPayloadBytes * 8
				} else {
					res.Duplicates++
					st.DuplicateFrames++
				}
				if ack == nil || !ack.AckLost(rec.ID) {
					break
				}
				st.AckLosses++
				if attempt == cfg.MaxRetries {
					break
				}
				st.Retransmissions++
				continue
			}
		}
		if attempt < cfg.MaxRetries {
			st.Retransmissions++
		}
	}
	if res.Delivered {
		st.FramesDelivered++
		st.BitsDelivered += int64(res.Bits)
	} else {
		st.FramesLost++
	}
	st.AirTimeSeconds += res.AirTime
	return res, nil
}

// TestPollMemoMatchesPickRate pins Poll's rate-decision memo to the
// definition: over a medium whose answers change every k polls, plain
// and behind a fault injector (blockage, death and ACK loss, then SNR
// noise too, which draws from its RNG on every query), a station's
// PollResult sequence and Stats equal those of a loop that prices every
// poll with PickRate and FramePER directly.
func TestPollMemoMatchesPickRate(t *testing.T) {
	cfg := pollConfig()
	cfg.RateTable = mac.DefaultRateTable()
	const faults = "blockage=25,clear=0.02,blocked=0.01,death=0.3,lifetime=0.3,ackloss=0.2"
	for _, spec := range []string{"", faults, faults + ",snr=0.5"} {
		for _, k := range []int{1, 3, 7} {
			t.Run(fmt.Sprintf("faults=%q/k=%d", spec, k), func(t *testing.T) {
				type run struct {
					results []mac.PollResult
					stats   mac.Stats
				}
				// drive discovers with a Station, then polls each known
				// tag 120 rounds, advancing the medium every k rounds
				// and the fault clock 1 ms per round.
				drive := func(poll func(*mac.Station, *rand.Rand, mac.Medium, mac.TagRecord) (mac.PollResult, error)) run {
					inner := &stepMedium{ids: []uint8{1, 2, 3, 4, 5, 6, 7, 8}}
					var medium mac.Medium = inner
					now := 0.0
					if spec != "" {
						plan, err := fault.ParseSpec(spec)
						if err != nil {
							t.Fatal(err)
						}
						inj, err := fault.NewInjector(*plan, 5, inner)
						if err != nil {
							t.Fatal(err)
						}
						inj.SetClock(func() float64 { return now })
						medium = inj
					}
					rng := rand.New(rand.NewSource(11))
					st, err := mac.NewStation(cfg, medium, rng)
					if err != nil {
						t.Fatal(err)
					}
					if st.Discover() < 3 {
						t.Fatal("fewer than 3 tags discovered; the check is weak")
					}
					var out run
					for round := 0; round < 120; round++ {
						if round%k == 0 {
							inner.step++
						}
						now += 1e-3
						for _, rec := range st.Known() {
							res, err := poll(st, rng, medium, rec)
							if err != nil {
								t.Fatal(err)
							}
							out.results = append(out.results, res)
						}
					}
					out.stats = st.Stats
					return out
				}
				got := drive(func(st *mac.Station, _ *rand.Rand, _ mac.Medium, rec mac.TagRecord) (mac.PollResult, error) {
					return st.Poll(rec.ID)
				})
				want := drive(func(st *mac.Station, rng *rand.Rand, m mac.Medium, rec mac.TagRecord) (mac.PollResult, error) {
					return refPoll(cfg, m, rng, rec, &st.Stats)
				})
				for i := range want.results {
					// Rates carry a BER func, which DeepEqual never
					// matches; compare them by name.
					g, w := got.results[i], want.results[i]
					g.Rate, w.Rate = mac.Rate{}, mac.Rate{}
					if !reflect.DeepEqual(g, w) || got.results[i].Rate.String() != want.results[i].Rate.String() {
						t.Fatalf("poll %d: memo %+v, PickRate loop %+v", i, got.results[i], want.results[i])
					}
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Fatalf("stats: memo %+v, PickRate loop %+v", got.stats, want.stats)
				}
				degraded, rates, tag7 := 0, map[string]bool{}, map[string]bool{}
				for _, r := range want.results {
					if r.Degraded {
						degraded++
					}
					rates[r.Rate.String()] = true
					if r.TagID == 7 {
						tag7[r.Rate.String()] = true
					}
				}
				if degraded == 0 || len(rates) < 3 || len(tag7) < 2 {
					t.Fatalf("%d degraded picks over %d rates, tag 7 at %d rates; the check is vacuous",
						degraded, len(rates), len(tag7))
				}
			})
		}
	}
}

// TestPollWarmZeroAlloc guards the poll loop: once a tag's memos are
// warm, an uninstrumented Poll allocates nothing.
func TestPollWarmZeroAlloc(t *testing.T) {
	cfg := pollConfig()
	st, err := mac.NewStation(cfg, &stepMedium{ids: []uint8{6}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Discover() != 1 {
		t.Fatal("tag 6 not discovered")
	}
	if _, err := st.Poll(6); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { st.Poll(6) }); allocs != 0 {
		t.Fatalf("warm Poll allocates %v per call, want 0", allocs)
	}
}
