package ap

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mmtag/internal/dsp"
	"mmtag/internal/frame"
	"mmtag/internal/vanatta"
)

// packBatch stages the given waveforms into a dsp.Batch, one lane each.
func packBatch(waves [][]complex128) *dsp.Batch {
	stride := 0
	for _, w := range waves {
		if len(w) > stride {
			stride = len(w)
		}
	}
	b := dsp.NewBatch(len(waves), stride)
	for l, w := range waves {
		b.SetLaneLen(l, len(w))
		copy(b.LaneCap(l), w)
	}
	return b
}

// batchCase is one demodulator configuration the batch kernel is held
// to the serial oracle on.
type batchCase struct {
	set  vanatta.StateSet
	sps  int
	opts frame.Options
}

func (c batchCase) String() string {
	return fmt.Sprintf("%s-sps%d-coded%v", c.set.Name(), c.sps, c.opts.Coded)
}

// batchCases covers every branch of decide: uncoded OOK (the original
// input), coded BPSK (the soft-Viterbi path), coded QPSK (coded, hard)
// and 16-QAM, each multi-bit alphabet at the tier-a oversampling (4)
// and the experiments' (8).
func batchCases() []batchCase {
	cases := []batchCase{{vanatta.OOK(), 8, frame.Options{}}}
	for _, sps := range []int{4, 8} {
		cases = append(cases,
			batchCase{vanatta.BPSK(), sps, frame.Options{Coded: true}},
			batchCase{vanatta.QPSK(), sps, frame.Options{Coded: true}},
			batchCase{vanatta.QAM16(), sps, frame.Options{}})
	}
	return cases
}

// buildBatchWaves builds n per-tag waveforms sharing one demodulator
// config, with ragged lengths, varying channels, noisy lanes whose
// decode may fail after sync, and deliberate failure lanes (no
// preamble, too short) sprinkled in.
func buildBatchWaves(t testing.TB, n int, seed int64, bc batchCase) ([][]complex128, *Demodulator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var dem *Demodulator
	waves := make([][]complex128, n)
	for i := range waves {
		switch {
		case n > 2 && i%5 == 4:
			// Static offset + noise only: sync must fail.
			w := make([]complex128, 6000+i*13)
			for k := range w {
				w[k] = complex(0.5, -0.2) + complex(rng.NormFloat64(), rng.NormFloat64())*1e-4
			}
			waves[i] = w
		case n > 2 && i%7 == 6:
			waves[i] = make([]complex128, 40) // too short
		default:
			payload := make([]byte, 16+(i*11)%48)
			rng.Read(payload)
			echo := complex(0.002, 0.0002*float64(i%8))
			static := complex(0.8, -0.3+0.01*float64(i%4))
			noise := 1e-9
			if i%3 == 2 {
				noise = 6e-7 // ~8 dB below the echo: sync holds, decode may not
			}
			w, _, d := buildUplinkWaveform(t, bc.set, payload, bc.sps, 0.02,
				echo, static, noise, rng, bc.opts)
			waves[i] = w
			if dem == nil {
				dem = d
			}
		}
	}
	if dem == nil {
		// All-failure batches still need a demodulator.
		_, _, d := buildUplinkWaveform(t, bc.set, []byte("x"), bc.sps, 0.02,
			complex(0.002, 0), complex(0.8, 0), 1e-9, rng, bc.opts)
		dem = d
	}
	return waves, dem
}

// buildLateWaves builds n waveforms on which the preamble search's
// winner comes late: up to 40 extra idle symbols ahead of the frame
// (the peak is not lag 0), a sub-symbol timing offset (the best
// alignment is not lane 0), a static echo 250× the tag's, and every
// third lane at an SNR low enough that most lags survive the bound.
func buildLateWaves(t testing.TB, n int, seed int64, bc batchCase) ([][]complex128, *Demodulator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var dem *Demodulator
	waves := make([][]complex128, n)
	for i := range waves {
		payload := make([]byte, 8+(i*7)%24)
		rng.Read(payload)
		noise := 1e-9
		if i%3 == 2 {
			noise = 5e-6 * float64(bc.sps) // about 0 dB per symbol: sync marginal, decode unlikely
		}
		w, _, d := buildUplinkWaveform(t, bc.set, payload, bc.sps, 0.02,
			complex(0.002, -0.001), complex(0.5, 0.2), noise, rng, bc.opts)
		if dem == nil {
			dem = d
		}
		lead := (rng.Intn(41) + 1) * bc.sps
		w = append(make([]complex128, lead, lead+len(w)), w...)
		for k := 0; k < lead; k++ {
			sd := math.Sqrt(noise / 2)
			w[k] = complex(0.5+rng.NormFloat64()*sd, 0.2+rng.NormFloat64()*sd)
		}
		waves[i] = w[1+rng.Intn(bc.sps-1):] // sub-symbol timing offset
	}
	return waves, dem
}

// DemodulateBatchTo must produce results deep-equal to the serial
// oracle lane by lane, across alphabets, coding, oversampling, batch
// sizes (including the ragged tail sizes a sharded consumer produces),
// mixed success/failure lanes, and lanes whose preamble peak comes late
// in a later alignment, so the kernel's early-abandoning search is
// checked where a later, better lag must beat an earlier one.
func TestDemodulateBatchMatchesSerial(t *testing.T) {
	for _, size := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("size-%d", size), func(t *testing.T) {
			for _, bc := range batchCases() {
				t.Run(bc.String(), func(t *testing.T) {
					waves, dem := buildBatchWaves(t, size, int64(1000+size), bc)
					checkBatchMatchesSerial(t, waves, dem, bc, size >= 7)
				})
			}
		})
	}
	for _, bc := range batchCases() {
		t.Run("late-winner/"+bc.String(), func(t *testing.T) {
			waves, dem := buildLateWaves(t, 12, 2000, bc)
			checkBatchMatchesSerial(t, waves, dem, bc, true)
		})
	}
}

// checkBatchMatchesSerial runs one cell of
// TestDemodulateBatchMatchesSerial; mixed asks for both decodable and
// failing lanes.
func checkBatchMatchesSerial(t *testing.T, waves [][]complex128, dem *Demodulator, bc batchCase, mixed bool) {
	size := len(waves)
	got := dem.DemodulateBatchTo(nil, packBatch(waves), bc.sps)
	if len(got) != size {
		t.Fatalf("got %d results for %d lanes", len(got), size)
	}
	okCount := 0
	for i, w := range waves {
		want := dem.demodulateSerial(w, bc.sps)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("lane %d diverges:\nbatch:  %+v\nserial: %+v", i, got[i], want)
		}
		if want.OK() {
			okCount++
		}
	}
	if mixed && okCount == 0 {
		t.Fatal("want at least one decodable lane in the batch")
	}
	if mixed && okCount == size {
		t.Fatal("want at least one failing lane in the batch")
	}
}

// The batch path and the one-waveform Demodulate must replicate the
// oracle's edge cases: bad sps, empty batches, and lanes that never
// reach the preamble search or never find the preamble.
func TestDemodulateBatchEdgeCases(t *testing.T) {
	waves, dem := buildBatchWaves(t, 7, 77, batchCases()[0])
	if len(waves[4]) < 6000 || len(waves[6]) != 40 {
		t.Fatal("want a no-preamble lane (4) and a too-short lane (6)")
	}

	if got := dem.DemodulateBatchTo(nil, dsp.NewBatch(0, 0), 8); len(got) != 0 {
		t.Fatalf("empty batch: %d results", len(got))
	}

	for _, sps := range []int{1, 8} {
		got := dem.DemodulateBatchTo(nil, packBatch(waves), sps)
		for i, w := range waves {
			want := dem.demodulateSerial(w, sps)
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("sps=%d batch lane %d: %+v != %+v", sps, i, got[i], want)
			}
			if one := dem.Demodulate(w, sps); !reflect.DeepEqual(one, want) {
				t.Fatalf("sps=%d Demodulate %d: %+v != %+v", sps, i, one, want)
			}
		}
	}

	// A reused dst slice must be fully overwritten.
	dst := make([]UplinkResult, len(waves))
	dst[0].SyncScore = 99
	dst[2].Err = fmt.Errorf("stale")
	dst = dem.DemodulateBatchTo(dst, packBatch(waves), 8)
	for i := range dst {
		want := dem.demodulateSerial(waves[i], 8)
		if !reflect.DeepEqual(dst[i], want) {
			t.Fatalf("reused dst lane %d: %+v != %+v", i, dst[i], want)
		}
	}
}

// Steady-state receive passes must not allocate beyond what escapes to
// the caller: decoded frames and per-lane error values, both of which
// the serial oracle also pays. The guard pins that by comparison — a
// batch pass, and the same waveforms through the one-waveform
// Demodulate, must cost no more allocations than the oracle's sum,
// which leaves zero allocations attributable to the batch kernel or
// Demodulate's staging. The dsp-level batch kernels carry a strict
// zero-alloc guard in internal/dsp.
func TestDemodulateBatchAllocs(t *testing.T) {
	const lanes = 8
	waves, dem := buildBatchWaves(t, lanes, 55, batchCases()[0])
	batch := packBatch(waves)
	dst := make([]UplinkResult, lanes)
	dst = dem.DemodulateBatchTo(dst, batch, 8) // warm pools and plan caches
	for _, w := range waves {
		dem.demodulateSerial(w, 8)
		dem.Demodulate(w, 8)
	}

	serial := testing.AllocsPerRun(10, func() {
		for _, w := range waves {
			dem.demodulateSerial(w, 8)
		}
	})
	batched := testing.AllocsPerRun(10, func() {
		dst = dem.DemodulateBatchTo(dst, batch, 8)
	})
	single := testing.AllocsPerRun(10, func() {
		for _, w := range waves {
			dem.Demodulate(w, 8)
		}
	})
	t.Logf("allocs per pass: serial=%v batched=%v single=%v", serial, batched, single)
	if batched > serial {
		t.Fatalf("batch kernel adds allocations: batched=%v, want <= serial=%v", batched, serial)
	}
	// Demodulate borrows three pooled buffers per call, and the race
	// detector's sync.Pool sheds items at random.
	if !raceEnabled && single > serial {
		t.Fatalf("Demodulate adds allocations: single=%v, want <= serial=%v", single, serial)
	}
}

func BenchmarkDemodulateBatchOOK(b *testing.B) {
	for _, lanes := range []int{8, 64} {
		b.Run(fmt.Sprintf("batched-%d", lanes), func(b *testing.B) {
			waves, dem := benchWaves(b, lanes)
			batch := packBatch(waves)
			dst := make([]UplinkResult, lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = dem.DemodulateBatchTo(dst, batch, 8)
			}
		})
		b.Run(fmt.Sprintf("serial-%d", lanes), func(b *testing.B) {
			waves, dem := benchWaves(b, lanes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, w := range waves {
					if res := dem.demodulateSerial(w, 8); !res.OK() {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

func benchWaves(b *testing.B, lanes int) ([][]complex128, *Demodulator) {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	waves := make([][]complex128, lanes)
	var dem *Demodulator
	for i := range waves {
		payload := make([]byte, 64)
		rng.Read(payload)
		w, _, d := buildUplinkWaveform(b, vanatta.OOK(), payload, 8, 0.02,
			complex(0.002, 0), complex(0.5, 0.2), 1e-9, rng, frame.Options{})
		waves[i] = w
		if dem == nil {
			dem = d
		}
	}
	return waves, dem
}
