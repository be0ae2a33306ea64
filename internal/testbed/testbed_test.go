package testbed

import (
	"math"
	"testing"

	"pilgrim/internal/g5k"
)

func newTB(t testing.TB, ref *g5k.Reference) *Testbed {
	t.Helper()
	tb, err := New(ref, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// quiet returns a config without stochastic noise, for closed-form checks.
func quiet() Config {
	cfg := DefaultConfig()
	cfg.RateJitterSigma = 0
	for k, c := range cfg.Classes {
		c.OverheadSigma = 0
		cfg.Classes[k] = c
	}
	return cfg
}

func TestNodesEnumerated(t *testing.T) {
	tb := newTB(t, g5k.Default())
	if got := len(tb.net.nodes); got != g5k.Default().NumNodes() {
		t.Errorf("nodes = %d", got)
	}
	sag := tb.NodesOfCluster("lyon", "sagittaire")
	if len(sag) != 79 {
		t.Errorf("sagittaire = %d", len(sag))
	}
	if sag[0] != "sagittaire-1.lyon.grid5000.fr" {
		t.Errorf("first = %s", sag[0])
	}
}

func TestRTTProfiles(t *testing.T) {
	tb := newTB(t, g5k.Default())
	// Intra-sagittaire (flat, old Opterons): ~2*(60+20+60) us = 280 us.
	rtt, err := tb.RTT("sagittaire-1.lyon.grid5000.fr", "sagittaire-2.lyon.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	if rtt < 200e-6 || rtt > 400e-6 {
		t.Errorf("sagittaire RTT = %v, want ~280us", rtt)
	}
	// Intra-graphene same group (fast Xeons, cut-through switch): well
	// below sagittaire.
	rtt2, err := tb.RTT("graphene-1.nancy.grid5000.fr", "graphene-2.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	if rtt2 >= rtt {
		t.Errorf("graphene RTT %v should be below sagittaire %v", rtt2, rtt)
	}
	// Cross-group adds two switch stages and the router.
	rtt3, err := tb.RTT("graphene-1.nancy.grid5000.fr", "graphene-144.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	if rtt3 <= rtt2 {
		t.Errorf("cross-group RTT %v should exceed same-group %v", rtt3, rtt2)
	}
	// Cross-site is millisecond-scale (backbone).
	rtt4, err := tb.RTT("sagittaire-1.lyon.grid5000.fr", "graphene-1.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	if rtt4 < 7e-3 || rtt4 > 11e-3 {
		t.Errorf("cross-site RTT = %v, want ~8.5ms", rtt4)
	}
}

func TestUnknownNodesRejected(t *testing.T) {
	tb := newTB(t, g5k.Mini())
	if _, err := tb.RTT("ghost.lyon.grid5000.fr", "sagittaire-1.lyon.grid5000.fr"); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := tb.RunTransfers([]Transfer{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-1.lyon.grid5000.fr", Size: 1}}); err == nil {
		t.Error("self transfer accepted")
	}
	if _, err := tb.RunTransfers([]Transfer{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: -1}}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestLargeTransferNearLineRate(t *testing.T) {
	tb, err := New(g5k.Default(), quiet())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tb.RunTransfers([]Transfer{{
		Src: "graphene-1.nancy.grid5000.fr", Dst: "graphene-2.nancy.grid5000.fr", Size: 1e9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rate := 1e9 / ms[0].Duration
	// Payload line rate = 0.941 * 125e6 = 117.6 MB/s; slow start on a
	// 100us-RTT LAN costs almost nothing at this size.
	if rate < 110e6 || rate > 118e6 {
		t.Errorf("solo gigabit rate = %.3g B/s, want ~117e6", rate)
	}
}

func TestSmallTransferDominatedByOverhead(t *testing.T) {
	tb, err := New(g5k.Default(), quiet())
	if err != nil {
		t.Fatal(err)
	}
	// sagittaire (opteron2004, 25ms overhead): 0.1 MB must take ~25-30ms.
	ms, err := tb.RunTransfers([]Transfer{{
		Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 1e5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Duration < 20e-3 || ms[0].Duration > 40e-3 {
		t.Errorf("sagittaire 0.1MB = %v, want ~25-30ms", ms[0].Duration)
	}
	// graphene (xeon2010, 0.4ms overhead): the same transfer is ~1ms.
	ms2, err := tb.RunTransfers([]Transfer{{
		Src: "graphene-1.nancy.grid5000.fr", Dst: "graphene-2.nancy.grid5000.fr", Size: 1e5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ms2[0].Duration > 3e-3 {
		t.Errorf("graphene 0.1MB = %v, want ~1ms", ms2[0].Duration)
	}
	if ms2[0].Duration >= ms[0].Duration {
		t.Error("graphene should be much faster than sagittaire on small transfers")
	}
}

func TestSlowStartVisibleAtMidSizes(t *testing.T) {
	// Effective rate must grow with size (slow start amortization).
	tb, err := New(g5k.Default(), quiet())
	if err != nil {
		t.Fatal(err)
	}
	rateOf := func(size float64) float64 {
		ms, err := tb.RunTransfers([]Transfer{{
			Src: "graphene-1.nancy.grid5000.fr", Dst: "graphene-2.nancy.grid5000.fr", Size: size,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return size / ms[0].Duration
	}
	r1 := rateOf(1e5)
	r2 := rateOf(1e7)
	r3 := rateOf(1e9)
	if !(r1 < r2 && r2 < r3) {
		t.Errorf("rates not increasing with size: %.3g %.3g %.3g", r1, r2, r3)
	}
}

func TestConcurrentSharingOnNIC(t *testing.T) {
	// 4 flows out of one node share its gigabit NIC.
	tb, err := New(g5k.Default(), quiet())
	if err != nil {
		t.Fatal(err)
	}
	var ts []Transfer
	for i := 2; i <= 5; i++ {
		ts = append(ts, Transfer{
			Src:  "graphene-1.nancy.grid5000.fr",
			Dst:  "graphene-" + itoa(i) + ".nancy.grid5000.fr",
			Size: 5e8,
		})
	}
	ms, err := tb.RunTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		rate := m.Size / m.Duration
		want := 0.941 * 125e6 / 4
		if math.Abs(rate-want)/want > 0.1 {
			t.Errorf("shared rate = %.3g, want ~%.3g", rate, want)
		}
	}
}

func TestFullDuplexUplinksDoNotContend(t *testing.T) {
	// The physical network is full duplex: many flows crossing graphene
	// groups in both directions must all get NIC line rate while the
	// 10G uplinks carry under 10 flows per direction.
	tb, err := New(g5k.Default(), quiet())
	if err != nil {
		t.Fatal(err)
	}
	var ts []Transfer
	// 8 flows group1 -> group2, 8 flows group2 -> group1.
	for i := 0; i < 8; i++ {
		ts = append(ts, Transfer{
			Src:  "graphene-" + itoa(1+i) + ".nancy.grid5000.fr",
			Dst:  "graphene-" + itoa(40+i) + ".nancy.grid5000.fr",
			Size: 5e8,
		})
		ts = append(ts, Transfer{
			Src:  "graphene-" + itoa(50+i) + ".nancy.grid5000.fr",
			Dst:  "graphene-" + itoa(10+i) + ".nancy.grid5000.fr",
			Size: 5e8,
		})
	}
	ms, err := tb.RunTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		rate := m.Size / m.Duration
		if rate < 0.9*117e6 {
			t.Errorf("full-duplex uplink flow rate = %.3g, want ~117e6", rate)
		}
	}
}

func TestUplinkSaturationWhenOversubscribed(t *testing.T) {
	// 16 one-way flows through a single 10G uplink direction: ~every
	// flow drops to ~1.15 GB/s / 16.
	tb, err := New(g5k.Default(), quiet())
	if err != nil {
		t.Fatal(err)
	}
	var ts []Transfer
	for i := 0; i < 16; i++ {
		ts = append(ts, Transfer{
			Src:  "graphene-" + itoa(1+i) + ".nancy.grid5000.fr", // all in group 1
			Dst:  "graphene-" + itoa(40+i) + ".nancy.grid5000.fr",
			Size: 5e8,
		})
	}
	ms, err := tb.RunTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.941 * 1.25e9 / 16
	for _, m := range ms {
		rate := m.Size / m.Duration
		if math.Abs(rate-want)/want > 0.15 {
			t.Errorf("oversubscribed uplink rate = %.3g, want ~%.3g", rate, want)
		}
	}
}

func TestCrossSiteTransfer(t *testing.T) {
	tb, err := New(g5k.Default(), quiet())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := tb.RunTransfers([]Transfer{{
		Src: "sagittaire-1.lyon.grid5000.fr", Dst: "graphene-1.nancy.grid5000.fr", Size: 1e9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	rate := 1e9 / ms[0].Duration
	// Single cross-site flow: NIC-bound (the 4MB window over ~8.5ms RTT
	// allows ~490 MB/s, far above the gigabit NIC).
	if rate < 100e6 || rate > 118e6 {
		t.Errorf("cross-site rate = %.3g B/s, want ~115e6", rate)
	}
	if ms[0].SetupTime < 10e-3 {
		t.Errorf("setup = %v, want >= 1.5 cross-site RTTs", ms[0].SetupTime)
	}
}

func TestDeterminismAcrossReseeds(t *testing.T) {
	tb := newTB(t, g5k.Mini())
	ts := []Transfer{
		{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 1e7},
		{Src: "graphene-1.nancy.grid5000.fr", Dst: "graphene-5.nancy.grid5000.fr", Size: 1e7},
	}
	tb.Reseed(42)
	a, err := tb.RunTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	tb.Reseed(42)
	b, err := tb.RunTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Duration != b[i].Duration {
			t.Errorf("nondeterministic: %v vs %v", a[i].Duration, b[i].Duration)
		}
	}
	tb.Reseed(43)
	c, err := tb.RunTransfers(ts)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].Duration == a[0].Duration && c[1].Duration == a[1].Duration {
		t.Error("different seed produced identical noise")
	}
}

func TestJitterOnlyAffectsNoise(t *testing.T) {
	// DataTime must be deterministic regardless of seed (noise applies
	// to the reported Duration only).
	tb := newTB(t, g5k.Mini())
	ts := []Transfer{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 1e8}}
	tb.Reseed(1)
	a, _ := tb.RunTransfers(ts)
	tb.Reseed(99)
	b, _ := tb.RunTransfers(ts)
	if a[0].DataTime != b[0].DataTime {
		t.Errorf("DataTime depends on seed: %v vs %v", a[0].DataTime, b[0].DataTime)
	}
	if a[0].Duration == b[0].Duration {
		t.Error("Duration should carry seed-dependent noise")
	}
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func BenchmarkRun30Transfers(b *testing.B) {
	tb, err := New(g5k.Default(), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var ts []Transfer
	for i := 0; i < 30; i++ {
		ts = append(ts, Transfer{
			Src:  "graphene-" + itoa(1+i) + ".nancy.grid5000.fr",
			Dst:  "sagittaire-" + itoa(1+i) + ".lyon.grid5000.fr",
			Size: 1e8,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Reseed(int64(i))
		if _, err := tb.RunTransfers(ts); err != nil {
			b.Fatal(err)
		}
	}
}
