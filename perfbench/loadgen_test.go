package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // p50 has 9 samples beyond
		{20, 50, true},
		{99, 50, true}, // p90 is rank 90: 9 beyond
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond, want >= %d", tc.n, got, tc.n-rank(tc.n, got), minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{0: 1, 1: 1, 50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
}

func TestSampleTimesFromDue(t *testing.T) {
	s := sample{due: 10 * time.Millisecond, sent: 15 * time.Millisecond, done: 21 * time.Millisecond}
	if got := s.latency(); got != 11*time.Millisecond {
		t.Errorf("latency = %s, want 11ms (due to done)", got)
	}
	if got := s.late(); got != 5*time.Millisecond {
		t.Errorf("late = %s, want 5ms", got)
	}
	s.sent = 9 * time.Millisecond
	if got := s.late(); got != 0 {
		t.Errorf("late for an early send = %s, want 0", got)
	}
}

// TestOpenLoopBacklog drives one connection at 1000 requests/s with a
// 4 ms service time: the schedule falls behind, and every request's
// latency must include the wait behind the ones before it.
func TestOpenLoopBacklog(t *testing.T) {
	const n = 12
	service := 4 * time.Millisecond
	interval := time.Millisecond
	samples := openLoop(time.Now(), n, 1000, 1, time.Second, func(_, _ int, s *sample) {
		time.Sleep(service)
		s.ok = true
	})
	for i, s := range samples {
		if s.failed || !s.ok {
			t.Fatalf("sample %d failed: %s", i, s.why)
		}
		if s.due != time.Duration(i)*interval {
			t.Errorf("sample %d due at %s, want %s", i, s.due, time.Duration(i)*interval)
		}
		if s.latency() != s.late()+(s.done-s.sent) {
			t.Errorf("sample %d: latency %s != late %s + service %s", i, s.latency(), s.late(), s.done-s.sent)
		}
		// Request i cannot be sent before the i requests ahead of it on
		// the one connection have each taken their service time.
		if minLate := time.Duration(i) * (service - interval); s.late() < minLate {
			t.Errorf("sample %d late by %s, want at least %s", i, s.late(), minLate)
		}
	}
}

// TestOpenLoopAbandons checks that requests the generator cannot send
// before the schedule's cutoff come back failed, not silently dropped.
func TestOpenLoopAbandons(t *testing.T) {
	samples := openLoop(time.Now(), 5, 1000, 1, 0, func(_, _ int, s *sample) {
		time.Sleep(20 * time.Millisecond)
		s.ok = true
	})
	if !samples[0].ok {
		t.Fatalf("first request was not served")
	}
	for i, s := range samples[1:] {
		if !s.failed {
			t.Errorf("sample %d sent past the cutoff but not failed", i+1)
		}
	}
}
