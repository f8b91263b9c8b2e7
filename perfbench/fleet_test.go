package main

import (
	"testing"
	"time"
)

func TestCheckMonotone(t *testing.T) {
	ms := time.Millisecond
	samples := make([]sample, 4)
	obs := []epochObs{
		// Done at 10 ms with epoch 5.
		{key: "0", sent: 0, done: 10 * ms, epoch: 5, sample: 0},
		// Overlaps sample 0, so an older epoch is no violation.
		{key: "0", sent: 5 * ms, done: 20 * ms, epoch: 4, sample: 1},
		// Sent after sample 0 completed: epoch 4 went backwards.
		{key: "0", sent: 11 * ms, done: 12 * ms, epoch: 4, sample: 2},
		// Another shard's epochs are independent.
		{key: "1", sent: 30 * ms, done: 31 * ms, epoch: 1, sample: 3},
	}
	checkMonotone(samples, obs)
	for i, want := range []bool{false, false, true, false} {
		if samples[i].failed != want {
			t.Errorf("sample %d failed = %v, want %v (%s)", i, samples[i].failed, want, samples[i].why)
		}
	}
}
