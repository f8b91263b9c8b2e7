package mac_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mmtag/internal/ap"
	"mmtag/internal/fastrand"
	"mmtag/internal/mac"
	"mmtag/internal/obs"
	"mmtag/internal/sim"
	"mmtag/internal/tag"
	"mmtag/internal/vanatta"
)

// failingFrames is a frame engine whose every frame fails to stage.
type failingFrames struct{}

func (failingFrames) FrameSuccess(mac.Rate, float64, int, fastrand.RNG) (bool, error) {
	return false, errors.New("stage failed")
}

// TestFaultPollCycleCountsPollErrors: a poll whose frame engine fails
// inside the simulator's TDMA loop is counted in Stats.PollErrors and
// under mac_polls_total{ok="error"} instead of being silently dropped.
func TestFaultPollCycleCountsPollErrors(t *testing.T) {
	a, err := ap.New(ap.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sim.NewNetwork(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, az := range []float64{-30, 0, 30} {
		arr, err := vanatta.New(vanatta.Config{Elements: 8, InsertionLossDB: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		tg, err := tag.New(tag.Config{ID: uint8(i + 1), Array: arr, Modulation: vanatta.OOK(), SwitchRiseTime: 2e-9})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.AddTag(sim.Placement{Device: tg, DistanceM: 3, AzimuthRad: sim.Deg(az)}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	rep, err := sim.RunInventory(n, sim.InventoryConfig{
		Duration: 0.01,
		Seed:     1,
		Station:  mac.StationConfig{Frames: failingFrames{}},
		Obs:      obs.NewHandle(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Discovered != 3 || rep.PollCycles == 0 {
		t.Fatalf("discovered %d tags in %d cycles, want 3 tags polled", rep.Discovered, rep.PollCycles)
	}
	if rep.FramesOK+rep.FramesLost != 0 {
		t.Fatalf("%d frames counted from polls that all failed", rep.FramesOK+rep.FramesLost)
	}
	if want := 3 * rep.PollCycles; rep.MACStats.PollErrors != want {
		t.Fatalf("PollErrors = %d, want %d (3 tags × %d cycles)", rep.MACStats.PollErrors, want, rep.PollCycles)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"1", "2", "3"} {
		series := `mac_polls_total{tag="` + id + `",ok="error"} `
		if !strings.Contains(prom.String(), series) {
			t.Fatalf("metrics lack %s:\n%s", series, prom.String())
		}
	}
}
