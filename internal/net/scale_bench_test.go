package net

import (
	"runtime"
	"testing"

	"mmtag/internal/link"
	"mmtag/internal/par"
)

// BenchmarkScaleRun times one ScaleDeployment.Run over a
// scale-ladder-shaped population (16 APs in 32 m cells, 4 frames per
// tag): "ladder" on the default fidelity ladder, where the tier-a and
// tier-b engines do most of the work, and "budget" with every tag on
// the closed-form tier. The plain cases run serially; the "-par" cases
// fan out over a pool of GOMAXPROCS workers, so contention between
// chunks shows (ladder-par runs 8 default chunks of 2,048 tags).
// "light-par" is the light-read shape: 4,096 tags on the default
// ladder over the pool, which the default chunking cuts into 8 chunks
// of 512. One op is one Run; tags/s is reported.
//
//	go test -run NONE -bench ScaleRun ./internal/net
func BenchmarkScaleRun(b *testing.B) {
	pool := par.New(par.Config{Workers: runtime.GOMAXPROCS(0)})
	defer pool.Close()
	for _, bc := range []struct {
		name  string
		tiers link.Thresholds
		tags  int
		pool  *par.Pool
	}{
		{"ladder", link.DefaultThresholds(), 4096, nil},
		{"budget", link.AllBudget(), 65536, nil},
		{"ladder-par", link.DefaultThresholds(), 16384, pool},
		{"budget-par", link.AllBudget(), 65536, pool},
		{"light-par", link.DefaultThresholds(), 4096, pool},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewScale(ScaleConfig{
				APs: 16, CellM: 32, Tags: bc.tags, FramesPerTag: 4,
				Tiers: &bc.tiers, Seed: 1, Pool: bc.pool,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(bc.tags)*float64(b.N)/b.Elapsed().Seconds(), "tags/s")
		})
	}
}
