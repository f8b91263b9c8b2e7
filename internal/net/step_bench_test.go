package net

import (
	"runtime"
	"testing"

	"mmtag/internal/par"
)

// BenchmarkRunnerStep times one live epoch of a serving shard: shard 0
// of the fleet the fleet-read benchmark serves (8 APs, 64 tags, two
// shards, seed 42), stepped on a pool of half the cores as each of the
// fleet's two daemons is. One op is one Runner.Step, so ns/op is the
// offline net.epoch_step_ms and allocs/op the per-epoch garbage.
//
//	go test -run NONE -bench RunnerStep ./internal/net
func BenchmarkRunnerStep(b *testing.B) {
	specs, err := PartitionDeployment(8, 64, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := specs[0].Slice(Config{APs: 8, Tags: 64, Seed: 42, Duration: 0.2, Epochs: 4, MobileFrac: 0.25})
	pool := par.New(par.Config{Workers: max(1, runtime.GOMAXPROCS(0)/2)})
	defer pool.Close()
	cfg.Pool = pool
	d, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := d.Runner(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
