package eval

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// parseF parses a rendered table cell back into a float.
func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", s, err)
	}
	return v
}

// columnStrings returns a table column, found by header name, as
// rendered cells.
func columnStrings(t *testing.T, tab *Table, name string) []string {
	t.Helper()
	idx := -1
	for i, h := range tab.Header {
		if h == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("table %s has no column %q (header %v)", tab.ID, name, tab.Header)
	}
	out := make([]string, 0, len(tab.Rows))
	for _, row := range tab.Rows {
		if idx < len(row) {
			out = append(out, row[idx])
		}
	}
	return out
}

// column parses a table column back into floats.
func column(t *testing.T, tab *Table, name string) []float64 {
	t.Helper()
	raw := columnStrings(t, tab, name)
	out := make([]float64, len(raw))
	for i, s := range raw {
		out[i] = parseF(t, s)
	}
	return out
}

// runTables runs one experiment through the suite registry, as
// cmd/mmtag-bench -experiment does.
func runTables(t *testing.T, id string, seed int64) []*Table {
	t.Helper()
	tabs, err := RunExperiment(Exec{}, id, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

func TestE1Shape(t *testing.T) {
	tab, err := E1RetroPattern(nil)
	if err != nil {
		t.Fatal(err)
	}
	angles := column(t, tab, "angle_deg")
	va8 := column(t, tab, "va8_dBi")
	va16 := column(t, tab, "va16_dBi")
	flat := column(t, tab, "flat8_dBi")
	mid := len(angles) / 2 // broadside row
	// Gain doubles (3 dB) per array doubling at broadside.
	if d := va16[mid] - va8[mid]; d < 2.9 || d > 3.1 {
		t.Fatalf("16 vs 8 element gain delta %g dB, want 3", d)
	}
	// Van Atta at 40° within 3.2 dB of broadside; flat plate down > 15 dB.
	idx40 := -1
	for i, a := range angles {
		if a == 40 {
			idx40 = i
		}
	}
	if idx40 < 0 {
		t.Fatal("no 40 degree row")
	}
	if drop := va8[mid] - va8[idx40]; drop > 3.2 {
		t.Fatalf("van atta drop at 40° = %g dB", drop)
	}
	if drop := flat[mid] - flat[idx40]; drop < 15 {
		t.Fatalf("flat plate drop at 40° = %g dB, want > 15", drop)
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := E2LinkBudget(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := column(t, tab, "distance_m")
	snr := column(t, tab, "snr10MHz_dB")
	echo := column(t, tab, "echo_dBm")
	// Monotone decreasing, ~40 dB/decade: compare d=1 and d=10 rows.
	var i1, i10 int
	for i := range d {
		if d[i] == 1 {
			i1 = i
		}
		if d[i] == 10 {
			i10 = i
		}
	}
	if slope := echo[i1] - echo[i10]; slope < 39.9 || slope > 40.1 {
		t.Fatalf("echo slope %g dB/decade", slope)
	}
	// SNR must still be workable at 8 m for the 10 MHz bandwidth.
	for i := range d {
		if d[i] == 8 && snr[i] < 5 {
			t.Fatalf("SNR at 8 m only %g dB; link budget miscalibrated", snr[i])
		}
	}
}

func TestE3MeasurementsTrackTheory(t *testing.T) {
	tab := runTables(t, "E3", 7)[0]
	ratios := column(t, tab, "ratio")
	meas := column(t, tab, "ber_measured")
	for i, r := range ratios {
		if meas[i] == 0 {
			continue // no errors observed at the deepest point; acceptable
		}
		if r < 0.5 || r > 2 {
			t.Fatalf("row %d: measured/theory ratio %g outside [0.5, 2]", i, r)
		}
	}
}

func TestE4Shape(t *testing.T) {
	tab, err := E4BERvsDistance(nil)
	if err != nil {
		t.Fatal(err)
	}
	b10 := column(t, tab, "ber_bpsk10M")
	b100 := column(t, tab, "ber_qpsk100M")
	for i := range b10 {
		// The fast rate is always at least as error-prone.
		if b100[i] < b10[i]-1e-18 {
			t.Fatalf("row %d: 100M BER %g below 10M BER %g", i, b100[i], b10[i])
		}
		// Both grow with distance.
		if i > 0 && (b10[i] < b10[i-1]-1e-18 || b100[i] < b100[i-1]-1e-18) {
			t.Fatalf("BER not monotone in distance at row %d", i)
		}
	}
	// Near range: clean; far range: the fast rate has failed badly.
	if b10[0] > 1e-9 {
		t.Fatalf("BPSK 10M at 1 m BER %g, want ~0", b10[0])
	}
	if b100[len(b100)-1] < 1e-3 {
		t.Fatalf("QPSK 100M at 10 m BER %g, want a wall", b100[len(b100)-1])
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5Throughput(nil)
	if err != nil {
		t.Fatal(err)
	}
	good := column(t, tab, "goodput_Mbps")
	// Non-increasing with distance (steps down as adaptation backs off).
	for i := 1; i < len(good); i++ {
		if good[i] > good[i-1]+1e-9 {
			t.Fatalf("goodput increased with distance at row %d", i)
		}
	}
	if good[0] < 50 {
		t.Fatalf("short-range goodput %g Mb/s, want the top rates", good[0])
	}
	if good[len(good)-1] >= good[0] {
		t.Fatal("no adaptation visible")
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := E6AngleRobustness(nil)
	if err != nil {
		t.Fatal(err)
	}
	angles := column(t, tab, "angle_deg")
	va := column(t, tab, "snr_va_dB")
	flat := column(t, tab, "snr_flat_dB")
	var mid, off int
	for i, a := range angles {
		if a == 0 {
			mid = i
		}
		if a == 30 {
			off = i
		}
	}
	// Equal-aperture structures are comparable at broadside (flat plate
	// has no switch loss, so it can be slightly ahead).
	if d := va[mid] - flat[mid]; d > 1 || d < -3 {
		t.Fatalf("broadside VA-flat delta %g dB", d)
	}
	// At 30° the Van Atta must dominate by tens of dB.
	if va[off]-flat[off] < 20 {
		t.Fatalf("van atta advantage at 30° only %g dB", va[off]-flat[off])
	}
}

func TestE7Shape(t *testing.T) {
	tab := runTables(t, "E7", 11)[0]
	tags := column(t, tab, "tags")
	disc := column(t, tab, "discovered")
	tdma := column(t, tab, "tdma_goodput_Mbps")
	sdm := column(t, tab, "sdm_goodput_Mbps")
	for i := range tags {
		if disc[i] < tags[i]*0.9 {
			t.Fatalf("only %g of %g tags discovered", disc[i], tags[i])
		}
		if tdma[i] <= 0 {
			t.Fatalf("zero TDMA goodput at %g tags", tags[i])
		}
	}
	// With many spread tags SDM must beat TDMA.
	last := len(tags) - 1
	if sdm[last] <= tdma[last] {
		t.Fatalf("SDM %g <= TDMA %g at %g tags", sdm[last], tdma[last], tags[last])
	}
}

func TestE8Shape(t *testing.T) {
	tab, err := E8EnergyPerBit(nil)
	if err != nil {
		t.Fatal(err)
	}
	rate := column(t, tab, "rate_Mbps")
	ook := column(t, tab, "ook_nJ_per_bit")
	adv := column(t, tab, "advantage_x")
	for i := range rate {
		if i > 0 && ook[i] > ook[i-1]+1e-9 {
			t.Fatal("energy per bit must fall with rate")
		}
		if adv[i] < 10 {
			t.Fatalf("advantage %gx at %g Mb/s, want >= 10x", adv[i], rate[i])
		}
		if rate[i] == 10 && (ook[i] < 2.0 || ook[i] > 2.8) {
			t.Fatalf("calibration point %g nJ/bit at 10 Mb/s, want ~2.4", ook[i])
		}
	}
}

func TestE9Shape(t *testing.T) {
	tab := runTables(t, "E9", 13)[0]
	cancel := column(t, tab, "cancel_dB")
	decoded := columnStrings(t, tab, "decoded")
	// Weak cancellation fails, strong succeeds, with a single crossover.
	if decoded[0] != "false" {
		t.Fatal("0 dB cancellation should fail through a 12-bit ADC")
	}
	if decoded[len(decoded)-1] != "true" {
		t.Fatal("60 dB cancellation should decode")
	}
	seenTrue := false
	for i, d := range decoded {
		if d == "true" {
			seenTrue = true
		} else if seenTrue {
			t.Fatalf("decode regressed at cancellation %g dB", cancel[i])
		}
	}
}

func TestE10Shape(t *testing.T) {
	tab := runTables(t, "E10", 17)[0]
	tags := column(t, tab, "tags")
	disc := column(t, tab, "discovered")
	lat := column(t, tab, "latency_ms")
	for i := range tags {
		if disc[i] < tags[i] {
			t.Fatalf("discovery incomplete: %g of %g", disc[i], tags[i])
		}
	}
	// Latency grows with population.
	if lat[len(lat)-1] <= lat[0] {
		t.Fatal("discovery latency should grow with tags")
	}
}

func TestE11Shape(t *testing.T) {
	tabs := runTables(t, "E11", 19)
	if len(tabs) != 2 {
		t.Fatalf("E11 returns %d tables", len(tabs))
	}
	evm := column(t, tabs[0], "evm")
	settled := column(t, tabs[0], "settled_fraction")
	// EVM grows and settling falls as the rate climbs.
	if evm[len(evm)-1] <= evm[0] {
		t.Fatal("EVM should grow with symbol rate")
	}
	for i := 1; i < len(settled); i++ {
		if settled[i] > settled[i-1]+1e-9 {
			t.Fatal("settled fraction must fall with rate")
		}
	}
	maxRate := column(t, tabs[1], "max_symbol_rate_MHz")
	for i := 1; i < len(maxRate); i++ {
		if maxRate[i] >= maxRate[i-1] {
			t.Fatal("max rate must fall with rise time")
		}
	}
}

func TestE12Shape(t *testing.T) {
	tab := runTables(t, "E12", 23)[0]
	snr := column(t, tab, "esn0_dB")
	unc := column(t, tab, "per_uncoded")
	cod := column(t, tab, "per_coded_hard")
	soft := column(t, tab, "per_coded_soft")
	// The soft receiver never loses to the hard one on identical noise.
	for i := range soft {
		if soft[i] > cod[i]+1e-9 {
			t.Fatalf("soft PER %g worse than hard %g at %g dB", soft[i], cod[i], snr[i])
		}
	}
	// Coded never worse; at some mid SNR strictly better.
	betterSomewhere := false
	for i := range snr {
		if cod[i] > unc[i]+1e-9 {
			t.Fatalf("coded PER %g worse than uncoded %g at %g dB", cod[i], unc[i], snr[i])
		}
		if unc[i]-cod[i] > 0.3 {
			betterSomewhere = true
		}
	}
	if !betterSomewhere {
		t.Fatal("no visible coding gain")
	}
	// Low SNR: both bad. High SNR: both good.
	if unc[0] < 0.9 {
		t.Fatalf("uncoded PER at %g dB is %g, want ~1", snr[0], unc[0])
	}
	if cod[len(cod)-1] > 0.05 {
		t.Fatalf("coded PER at %g dB is %g, want ~0", snr[len(snr)-1], cod[len(cod)-1])
	}
}

func TestE13Shape(t *testing.T) {
	tab, err := E13BatteryFree(nil)
	if err != nil {
		t.Fatal(err)
	}
	duty := column(t, tab, "duty_cycle")
	rate := column(t, tab, "sustained_kbps")
	harvest := column(t, tab, "harvest_uW")
	// Monotone non-increasing with distance; continuous up close,
	// starved far out.
	for i := 1; i < len(duty); i++ {
		if duty[i] > duty[i-1]+1e-12 || rate[i] > rate[i-1]+1e-9 || harvest[i] > harvest[i-1]+1e-9 {
			t.Fatalf("battery-free metrics not monotone at row %d", i)
		}
	}
	// Harvest cannot power the 22 mW switch network continuously at any
	// range — battery-free operation is duty-cycled, per real rectenna
	// budgets: a fraction of a percent up close, starved beyond a few m.
	if duty[0] <= 1e-3 || duty[0] >= 0.1 {
		t.Fatalf("duty cycle at 0.25 m is %g, want a fraction of a percent", duty[0])
	}
	if rate[0] < 1 { // at least ~kb/s sustained up close
		t.Fatalf("sustained rate at 0.25 m is %g kb/s", rate[0])
	}
	if duty[len(duty)-1] != 0 {
		t.Fatalf("duty cycle at 6 m is %g, want starved", duty[len(duty)-1])
	}
}

func TestE14Shape(t *testing.T) {
	tab := runTables(t, "E14", 29)[0]
	tags := column(t, tab, "tags")
	fixedFound := column(t, tab, "fixed8_found")
	adaptFound := column(t, tab, "adaptive_found")
	aloha2Slots := column(t, tab, "aloha2_slots")
	adaptSlots := column(t, tab, "adaptive_slots")
	for i := range tags {
		if fixedFound[i] < tags[i] || adaptFound[i] < tags[i] {
			t.Fatalf("row %d: discovery incomplete", i)
		}
	}
	// At the largest population the adaptive window must beat the
	// undersized fixed ALOHA window on slots.
	last := len(tags) - 1
	if adaptSlots[last] >= aloha2Slots[last] {
		t.Fatalf("adaptive (%g slots) should beat undersized fixed (%g)",
			adaptSlots[last], aloha2Slots[last])
	}
}

func TestA1Shape(t *testing.T) {
	tab, err := A1RangeVsArraySize(nil)
	if err != nil {
		t.Fatal(err)
	}
	elements := column(t, tab, "elements")
	r10 := column(t, tab, "range_bpsk10M_m")
	r100 := column(t, tab, "range_qpsk100M_m")
	for i := range elements {
		// Robust rate always reaches further than the aggressive one.
		if r10[i] <= r100[i] {
			t.Fatalf("row %d: 10M range %g <= 100M range %g", i, r10[i], r100[i])
		}
		if i > 0 {
			// Each doubling multiplies range by ~sqrt(2) (6 dB two-way
			// on a 40 dB/decade slope).
			ratio := r10[i] / r10[i-1]
			if math.Abs(ratio-math.Sqrt2) > 0.05 {
				t.Fatalf("doubling ratio %g, want ~1.414", ratio)
			}
		}
	}
	// The default 8-element tag at 100 Mb/s reaches ~8 m.
	if r100[1] < 7 || r100[1] > 10 {
		t.Fatalf("8-element 100M range %g m, want ~8", r100[1])
	}
}

func TestE15Shape(t *testing.T) {
	tab := runTables(t, "E15", 31)[0]
	depth := column(t, tab, "depth_dB_oneway")
	delivery := column(t, tab, "delivery_ratio")
	// No blockage: essentially perfect delivery.
	if delivery[0] < 0.99 {
		t.Fatalf("clear-air delivery %g", delivery[0])
	}
	// Moderate blockage (20 dB) ridden through by adaptation.
	for i, d := range depth {
		if d == 20 && delivery[i] < 0.9 {
			t.Fatalf("20 dB blockage delivery %g, want ride-through", delivery[i])
		}
		// Very deep blockage costs real losses.
		if d == 50 && delivery[i] > 0.9 {
			t.Fatalf("50 dB blockage delivery %g, should visibly hurt", delivery[i])
		}
	}
}

func TestE16Shape(t *testing.T) {
	tab := runTables(t, "E16", 37)[0]
	onetap := column(t, tab, "ser_onetap")
	mmse := column(t, tab, "ser_mmse")
	// The equalizer never loses to the one-tap receiver, and at the
	// lowest K (last row) it must rescue an otherwise broken link.
	for i := range onetap {
		if mmse[i] > onetap[i]+1e-12 {
			t.Fatalf("row %d: MMSE SER %g worse than one-tap %g", i, mmse[i], onetap[i])
		}
	}
	last := len(onetap) - 1
	if onetap[last] < 0.05 {
		t.Fatalf("low-K one-tap SER %g; channel too gentle to show the effect", onetap[last])
	}
	if mmse[last] > onetap[last]/5 {
		t.Fatalf("MMSE SER %g does not rescue the low-K link (one-tap %g)", mmse[last], onetap[last])
	}
}

func TestE17Shape(t *testing.T) {
	tab := runTables(t, "E17", 43)[0]
	sinr := column(t, tab, "tag_sinr_dB")
	good := column(t, tab, "goodput_Mbps")
	// SINR monotone non-increasing as the interferer strengthens.
	for i := 1; i < len(sinr); i++ {
		if sinr[i] > sinr[i-1]+1e-9 {
			t.Fatalf("SINR rose with interference at row %d", i)
		}
	}
	// The strongest interferer visibly hurts goodput vs the baseline.
	if good[len(good)-1] >= good[0]*0.8 {
		t.Fatalf("50 dBm interferer goodput %g vs clean %g: no visible impact",
			good[len(good)-1], good[0])
	}
}

func TestE18Shape(t *testing.T) {
	tab, err := E18RoomClutter(nil)
	if err != nil {
		t.Fatal(err)
	}
	cOverE := column(t, tab, "c_over_e_dB")
	c8 := column(t, tab, "cancel_adc8_dB")
	c12 := column(t, tab, "cancel_adc12_dB")
	for i := range cOverE {
		// Clutter always dominates the tag echo.
		if cOverE[i] < 20 {
			t.Fatalf("row %d: clutter only %g dB above echo", i, cOverE[i])
		}
		// A 12-bit ADC always needs less analog cancellation.
		if c12[i] > c8[i] {
			t.Fatalf("row %d: 12-bit needs more cancellation than 8-bit", i)
		}
	}
	// The near wall keeps the static floor roughly constant while the
	// mid-room tag echo weakens with room size, so the cancellation
	// requirement grows monotonically.
	for i := 1; i < len(c8); i++ {
		if c8[i] < c8[i-1]-1e-9 {
			t.Fatalf("8-bit requirement fell with room size at row %d", i)
		}
	}
}

func TestA2Shape(t *testing.T) {
	tab := runTables(t, "A2", 47)[0]
	chains := column(t, tab, "chains")
	good := column(t, tab, "goodput_Mbps")
	for i := 1; i < len(chains); i++ {
		if good[i] < good[i-1]-1e-9 {
			t.Fatalf("goodput fell when adding RF chains at row %d", i)
		}
	}
	// Going 1 -> 4 chains must multiply goodput substantially.
	if good[2] < good[0]*2 {
		t.Fatalf("4 chains (%g) should at least double 1 chain (%g)", good[2], good[0])
	}
}

func TestT2T3Shapes(t *testing.T) {
	t2, err := T2PowerBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 5 {
		t.Fatalf("T2 rows %d", len(t2.Rows))
	}
	totals := column(t, t2, "total")
	// Backscatter at 50 Msym must dominate 1 Msym.
	if totals[3] <= totals[1] {
		t.Fatal("fast switching must cost more")
	}
	t3, err := T3EnergyCompare()
	if err != nil {
		t.Fatal(err)
	}
	adv := column(t, t3, "advantage_x")
	for _, a := range adv {
		if a < 10 {
			t.Fatalf("advantage %g < 10x", a)
		}
	}
}

func TestAllTables(t *testing.T) {
	tabs, err := RunSuite(Exec{}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 30 { // E1..E22 (+E11b) + A1 + A2 + T2 + T3 + R1..R3
		t.Fatalf("RunSuite returned %d tables", len(tabs))
	}
	seen := map[string]bool{}
	for _, tab := range tabs {
		if tab.ID == "" || len(tab.Rows) == 0 {
			t.Fatalf("table %q empty", tab.Title)
		}
		if seen[tab.ID] {
			t.Fatalf("duplicate table ID %s", tab.ID)
		}
		seen[tab.ID] = true
		if strings.TrimSpace(tab.Render()) == "" {
			t.Fatal("render empty")
		}
	}
}

func TestE22Shape(t *testing.T) {
	tab := runTables(t, "E22", 42)[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("E22 has %d rows, want 4", len(tab.Rows))
	}
	tags := column(t, tab, "tags")
	a := column(t, tab, "tier_a")
	b := column(t, tab, "tier_b")
	c := column(t, tab, "tier_c")
	delivery := column(t, tab, "delivery")
	for i := range tags {
		if a[i]+b[i]+c[i] != tags[i] {
			t.Fatalf("row %d: tier split %g+%g+%g != %g tags", i, a[i], b[i], c[i], tags[i])
		}
		if delivery[i] <= 0 || delivery[i] >= 1 {
			t.Fatalf("row %d: delivery %g not in (0,1)", i, delivery[i])
		}
	}
	// The ladder rows must exercise every tier; the 1M row is pinned to
	// the link-budget tier only.
	for i := 0; i < 3; i++ {
		if a[i] == 0 || b[i] == 0 || c[i] == 0 {
			t.Fatalf("row %d: ladder not fully exercised (a=%g b=%g c=%g)", i, a[i], b[i], c[i])
		}
	}
	last := len(tags) - 1
	if tags[last] != 1e6 || a[last] != 0 || b[last] != 0 || c[last] != 1e6 {
		t.Fatalf("1M row should be pure tier c, got a=%g b=%g c=%g", a[last], b[last], c[last])
	}
}
