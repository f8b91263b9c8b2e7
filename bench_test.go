package mmtag

// Benchmark harness: one benchmark per experiment of the evaluation
// (DESIGN.md section 4). Each bench regenerates the full table/figure
// data exactly as cmd/mmtag-bench prints it; -benchtime=1x gives one
// clean reproduction pass. Reported ns/op measures the cost of
// regenerating the experiment, not any claim about the modelled system.

import (
	"testing"

	"mmtag/internal/eval"
	"mmtag/internal/par"
)

const benchSeed = 42

// benchExperiment regenerates one experiment's tables per iteration
// through the suite registry, as cmd/mmtag-bench -experiment does.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tabs, err := eval.RunExperiment(eval.Exec{}, id, nil, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) == 0 {
			b.Fatal("no tables")
		}
		for _, t := range tabs {
			if len(t.Rows) == 0 {
				b.Fatalf("%s: empty table %q", id, t.Title)
			}
		}
	}
}

func BenchmarkE1RetroPattern(b *testing.B) { benchExperiment(b, "E1") }

func BenchmarkE2LinkBudget(b *testing.B) { benchExperiment(b, "E2") }

func BenchmarkE3BERvsEbN0(b *testing.B) { benchExperiment(b, "E3") }

func BenchmarkE4BERvsDistance(b *testing.B) { benchExperiment(b, "E4") }

func BenchmarkE5Throughput(b *testing.B) { benchExperiment(b, "E5") }

func BenchmarkE6AngleRobustness(b *testing.B) { benchExperiment(b, "E6") }

func BenchmarkE7MultiTag(b *testing.B) { benchExperiment(b, "E7") }

func BenchmarkE8EnergyPerBit(b *testing.B) { benchExperiment(b, "E8") }

func BenchmarkE9Cancellation(b *testing.B) { benchExperiment(b, "E9") }

func BenchmarkE10Discovery(b *testing.B) { benchExperiment(b, "E10") }

func BenchmarkE11SwitchLimit(b *testing.B) { benchExperiment(b, "E11") }

func BenchmarkE12CodedPER(b *testing.B) { benchExperiment(b, "E12") }

func BenchmarkE13BatteryFree(b *testing.B) { benchExperiment(b, "E13") }

func BenchmarkE14DiscoveryAblation(b *testing.B) { benchExperiment(b, "E14") }

func BenchmarkE15Blockage(b *testing.B) { benchExperiment(b, "E15") }

func BenchmarkE16Multipath(b *testing.B) { benchExperiment(b, "E16") }

func BenchmarkE17Interference(b *testing.B) { benchExperiment(b, "E17") }

func BenchmarkE18RoomClutter(b *testing.B) { benchExperiment(b, "E18") }

func BenchmarkE19APScaling(b *testing.B) { benchExperiment(b, "E19") }

func BenchmarkE20HandoffLatency(b *testing.B) { benchExperiment(b, "E20") }

func BenchmarkE21EdgeReuse(b *testing.B) { benchExperiment(b, "E21") }

func BenchmarkE22ScaleTiers(b *testing.B) { benchExperiment(b, "E22") }

func BenchmarkA1RangeVsArraySize(b *testing.B) { benchExperiment(b, "A1") }

func BenchmarkA2SDMChains(b *testing.B) { benchExperiment(b, "A2") }

func BenchmarkT2PowerBreakdown(b *testing.B) { benchExperiment(b, "T2") }

func BenchmarkT3EnergyCompare(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkSuiteSerial regenerates every evaluation table on the
// calling goroutine — the reference cost of a full `mmtag-bench` run.
func BenchmarkSuiteSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tabs, err := eval.RunSuite(eval.Exec{}, nil, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) == 0 {
			b.Fatal("empty suite")
		}
	}
}

// BenchmarkSuiteParallel is the same suite sharded across a
// GOMAXPROCS-sized worker pool (experiments and their trial grids both
// shard). The output is bit-identical to the serial run; the ratio of
// the two benchmarks is the harness's parallel speedup on this machine.
func BenchmarkSuiteParallel(b *testing.B) {
	pool := par.New(par.Config{})
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tabs, err := eval.RunSuite(eval.Exec{Pool: pool}, nil, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(tabs) == 0 {
			b.Fatal("empty suite")
		}
	}
}

func benchSystemRun(b *testing.B, collectMetrics bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(SystemConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if err := sys.AddTag(TagSpec{
				ID:         uint8(j + 1),
				DistanceM:  2 + float64(j)*0.5,
				AzimuthDeg: -40 + float64(j)*11,
			}); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := sys.Run(RunConfig{
			Duration:       0.01,
			Seed:           int64(i),
			CollectMetrics: collectMetrics,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Discovered == 0 {
			b.Fatal("no tags discovered")
		}
		if collectMetrics && rep.Metrics == nil {
			b.Fatal("metered run must produce a snapshot")
		}
	}
}

// BenchmarkSystemRun measures a complete discovery + polling round on
// an 8-tag deployment through the public API with observability off (the
// nil-handle path — compare against BenchmarkSystemRunMetered to price
// the instrumentation).
func BenchmarkSystemRun(b *testing.B) { benchSystemRun(b, false) }

// BenchmarkSystemRunMetered is the same round with metrics, spans and
// the registry snapshot on.
func BenchmarkSystemRunMetered(b *testing.B) { benchSystemRun(b, true) }
