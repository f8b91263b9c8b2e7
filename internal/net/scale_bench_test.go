package net

import (
	"testing"

	"mmtag/internal/link"
)

// BenchmarkScaleRun times one serial ScaleDeployment.Run over a
// scale-ladder-shaped population (16 APs in 32 m cells, 4 frames per
// tag): "ladder" on the default fidelity ladder, where the tier-a and
// tier-b engines do most of the work, and "budget" with every tag on
// the closed-form tier. One op is one Run; tags/s is reported.
//
//	go test -run NONE -bench ScaleRun ./internal/net
func BenchmarkScaleRun(b *testing.B) {
	for _, bc := range []struct {
		name  string
		tiers link.Thresholds
		tags  int
	}{
		{"ladder", link.DefaultThresholds(), 4096},
		{"budget", link.AllBudget(), 65536},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := NewScale(ScaleConfig{
				APs: 16, CellM: 32, Tags: bc.tags, FramesPerTag: 4,
				Tiers: &bc.tiers, Seed: 1,
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
