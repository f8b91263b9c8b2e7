package ap

import (
	"fmt"
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

// buildBatchWaves builds n per-tag waveforms sharing one demodulator
// config, with ragged lengths, varying channels, and deliberate failure
// lanes (no preamble, too short) sprinkled in.
func buildBatchWaves(t testing.TB, n int, seed int64) ([][]complex128, *Demodulator) {
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
			w, _, d := buildUplinkWaveform(t, vanatta.OOK(), payload, 8, 0.02,
				echo, static, 1e-9, rng, frame.Options{})
			waves[i] = w
			if dem == nil {
				dem = d
			}
		}
	}
	if dem == nil {
		// All-failure batches still need a demodulator.
		_, _, d := buildUplinkWaveform(t, vanatta.OOK(), []byte("x"), 8, 0.02,
			complex(0.002, 0), complex(0.8, 0), 1e-9, rng, frame.Options{})
		dem = d
	}
	return waves, dem
}

// DemodulateBatchTo must produce results deep-equal to N serial
// Demodulate calls, across batch sizes (including the ragged tail sizes
// a sharded consumer produces) and mixed success/failure lanes.
func TestDemodulateBatchMatchesSerial(t *testing.T) {
	for _, size := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("size-%d", size), func(t *testing.T) {
			waves, dem := buildBatchWaves(t, size, int64(1000+size))
			got := dem.DemodulateBatchTo(nil, packBatch(waves), 8)
			if len(got) != size {
				t.Fatalf("got %d results for %d lanes", len(got), size)
			}
			okCount := 0
			for i, w := range waves {
				want := dem.Demodulate(w, 8)
				if !reflect.DeepEqual(got[i], *want) {
					t.Fatalf("lane %d diverges:\nbatch:  %+v\nserial: %+v", i, got[i], *want)
				}
				if want.OK() {
					okCount++
				}
			}
			if size >= 7 && okCount == 0 {
				t.Fatal("want at least one decodable lane in the batch")
			}
			if size >= 7 && okCount == size {
				t.Fatal("want at least one failing lane in the batch")
			}
		})
	}
}

// The batch path must replicate Demodulate's edge cases: bad sps, empty
// batches, and lanes that never reach the preamble search.
func TestDemodulateBatchEdgeCases(t *testing.T) {
	waves, dem := buildBatchWaves(t, 3, 77)

	if got := dem.DemodulateBatchTo(nil, dsp.NewBatch(0, 0), 8); len(got) != 0 {
		t.Fatalf("empty batch: %d results", len(got))
	}

	got := dem.DemodulateBatchTo(nil, packBatch(waves), 1)
	for i := range got {
		want := dem.Demodulate(waves[i], 1)
		if !reflect.DeepEqual(got[i], *want) {
			t.Fatalf("sps=1 lane %d: %+v != %+v", i, got[i], *want)
		}
	}

	// A reused dst slice must be fully overwritten.
	dst := make([]UplinkResult, 3)
	dst[0].SyncScore = 99
	dst[2].Err = fmt.Errorf("stale")
	dst = dem.DemodulateBatchTo(dst, packBatch(waves), 8)
	for i := range dst {
		want := dem.Demodulate(waves[i], 8)
		if !reflect.DeepEqual(dst[i], *want) {
			t.Fatalf("reused dst lane %d: %+v != %+v", i, dst[i], *want)
		}
	}
}

// Steady-state batch passes must not allocate beyond what escapes to
// the caller: decoded frames and per-lane error values, both of which
// the serial path also pays. The guard pins that by comparison — a
// batch pass must cost at least one allocation per lane LESS than the
// serial sum (the per-result header the serial path heap-allocates),
// which leaves exactly zero allocations attributable to the batch
// kernel itself. The dsp-level batch kernels carry a strict zero-alloc
// guard in internal/dsp.
func TestDemodulateBatchAllocs(t *testing.T) {
	const lanes = 8
	waves, dem := buildBatchWaves(t, lanes, 55)
	batch := packBatch(waves)
	dst := make([]UplinkResult, lanes)
	dst = dem.DemodulateBatchTo(dst, batch, 8) // warm pools and plan caches
	for _, w := range waves {
		dem.Demodulate(w, 8)
	}

	serial := testing.AllocsPerRun(10, func() {
		for _, w := range waves {
			dem.Demodulate(w, 8)
		}
	})
	batched := testing.AllocsPerRun(10, func() {
		dst = dem.DemodulateBatchTo(dst, batch, 8)
	})
	t.Logf("allocs per pass: serial=%v batched=%v", serial, batched)
	if batched > serial-lanes {
		t.Fatalf("batch kernel adds allocations: batched=%v, serial=%v, want batched <= serial-%d",
			batched, serial, lanes)
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
					if res := dem.Demodulate(w, 8); !res.OK() {
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
