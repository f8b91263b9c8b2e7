package mac

import (
	"errors"
	"math/rand"
	"testing"

	"mmtag/internal/fastrand"
)

// scriptedEngine returns a fixed success schedule and records every
// call, so the test can see exactly which draws the station delegated.
type scriptedEngine struct {
	script []bool
	calls  int
	rates  []Rate
	fail   error
}

func (e *scriptedEngine) FrameSuccess(r Rate, snr float64, payloadBytes int, rng fastrand.RNG) (bool, error) {
	if e.fail != nil {
		return false, e.fail
	}
	ok := e.script[e.calls%len(e.script)]
	e.calls++
	e.rates = append(e.rates, r)
	return ok, nil
}

func discoverOne(t *testing.T, cfg StationConfig, seed int64) *Station {
	t.Helper()
	m := denseMedium(1)
	st, err := NewStation(cfg, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.DiscoverAloha(AlohaConfig{}); got.Found != 1 {
		t.Fatalf("discovered %d of 1", got.Found)
	}
	return st
}

// With a Frames engine configured, Poll's data-frame loop must consult
// it — retrying on scripted failures — instead of the analytic PER draw.
func TestPollDelegatesToFrameEngine(t *testing.T) {
	eng := &scriptedEngine{script: []bool{false, false, true}}
	st := discoverOne(t, StationConfig{Beams: []float64{0}, Frames: eng}, 31)
	res, err := st.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("scripted third attempt should deliver")
	}
	if res.Attempts != 3 {
		t.Fatalf("got %d attempts, want 3 (two scripted losses)", res.Attempts)
	}
	if eng.calls != 3 {
		t.Fatalf("engine consulted %d times, want 3", eng.calls)
	}
	for _, r := range eng.rates {
		if r.Mod.Name == "" {
			t.Fatal("engine saw a zero rate")
		}
	}
}

// An engine error must surface from Poll, not be swallowed as a loss.
func TestPollFrameEngineError(t *testing.T) {
	eng := &scriptedEngine{fail: errors.New("boom")}
	st := discoverOne(t, StationConfig{Beams: []float64{0}, Frames: eng}, 32)
	if _, err := st.Poll(1); err == nil {
		t.Fatal("engine error should propagate")
	}
}

// Without an engine the analytic path must be untouched: two stations
// with identical seeds, one with a nil Frames field, agree exactly.
func TestPollNilEngineUnchanged(t *testing.T) {
	a := discoverOne(t, StationConfig{Beams: []float64{0}}, 33)
	b := discoverOne(t, StationConfig{Beams: []float64{0}, Frames: nil}, 33)
	ra, err := a.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Poll(1)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Delivered != rb.Delivered || ra.Attempts != rb.Attempts || ra.Bits != rb.Bits {
		t.Fatalf("nil-engine poll diverged: %+v vs %+v", ra, rb)
	}
}
