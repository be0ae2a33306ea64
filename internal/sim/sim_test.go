package sim

import (
	"math"
	"testing"
	"testing/quick"

	"pilgrim/internal/platform"
	"pilgrim/internal/stats"
)

// buildPair builds two hosts joined by a single shared link.
func buildPair(t testing.TB, bw, lat float64) *platform.Platform {
	t.Helper()
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	if _, err := as.AddHost("a", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := as.AddHost("b", 1e9); err != nil {
		t.Fatal(err)
	}
	l, err := as.AddLink("l", bw, lat, platform.Shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("a", "b", []platform.LinkUse{{Link: l, Direction: platform.None}}, true); err != nil {
		t.Fatal(err)
	}
	return p
}

// buildLyonNancy reproduces the paper's worked-example topology (§IV-C2):
// two Lyon nodes and one Nancy node, 1 Gb/s shared access links with
// 1e-4 s latency, a 10 Gb/s full-duplex backbone with 2.25e-3 s latency.
func buildLyonNancy(t testing.TB) *platform.Platform {
	t.Helper()
	p := platform.New("AS_g5k", platform.RoutingFull)
	root := p.Root()
	lyon, err := root.AddAS("AS_lyon", platform.RoutingFull)
	if err != nil {
		t.Fatal(err)
	}
	nancy, err := root.AddAS("AS_nancy", platform.RoutingFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lyon.AddRouter("gw.lyon"); err != nil {
		t.Fatal(err)
	}
	if _, err := nancy.AddRouter("gw.nancy"); err != nil {
		t.Fatal(err)
	}
	addNode := func(as *platform.AS, name, gw string) {
		if _, err := as.AddHost(name, 1e9); err != nil {
			t.Fatal(err)
		}
		l, err := as.AddLink(name+"_nic", 125e6, 1e-4, platform.Shared)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.AddRoute(name, gw, []platform.LinkUse{{Link: l, Direction: platform.Up}}, true); err != nil {
			t.Fatal(err)
		}
	}
	addNode(lyon, "capricorne-36", "gw.lyon")
	addNode(lyon, "capricorne-1", "gw.lyon")
	addNode(nancy, "griffon-50", "gw.nancy")
	// Intra-Lyon host-to-host route via the two NICs.
	c36 := p.Link("capricorne-36_nic")
	c1 := p.Link("capricorne-1_nic")
	if err := lyon.AddRoute("capricorne-36", "capricorne-1",
		[]platform.LinkUse{{Link: c36, Direction: platform.Up}, {Link: c1, Direction: platform.Down}}, true); err != nil {
		t.Fatal(err)
	}
	bb, err := root.AddLink("bb", 1.25e9, 2.25e-3, platform.FullDuplex)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.AddASRoute("AS_lyon", "gw.lyon", "AS_nancy", "gw.nancy",
		[]platform.LinkUse{{Link: bb, Direction: platform.Up}}, true); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSingleTransferDuration(t *testing.T) {
	// One flow on an idle 125 MB/s link, latency 1e-4:
	// duration = 10.4*1e-4 + size/(0.92*125e6).
	p := buildPair(t, 125e6, 1e-4)
	cfg := DefaultConfig()
	res, err := Predict(p, cfg, []Transfer{{Src: "a", Dst: "b", Size: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	want := 10.4*1e-4 + 1e9/(0.92*125e6)
	if math.Abs(res[0].Duration-want)/want > 1e-6 {
		t.Errorf("duration = %v, want %v", res[0].Duration, want)
	}
}

func TestWindowBoundLimitsLongPath(t *testing.T) {
	// High-latency path: rate capped at gamma/(2*RTT_raw).
	p := buildPair(t, 1.25e9, 10e-3) // 10 Gb/s, 10 ms
	cfg := DefaultConfig()
	res, err := Predict(p, cfg, []Transfer{{Src: "a", Dst: "b", Size: 1e9}})
	if err != nil {
		t.Fatal(err)
	}
	bound := 4194304 / (2 * 2 * 10e-3) // 104.9 MB/s
	want := 10.4*10e-3 + 1e9/bound
	if math.Abs(res[0].Duration-want)/want > 1e-6 {
		t.Errorf("duration = %v, want %v", res[0].Duration, want)
	}
}

func TestTwoFlowsShareEvenly(t *testing.T) {
	// Same RTT -> equal shares; both finish together at 2x solo time
	// (plus latency).
	p := buildPair(t, 100e6, 1e-4)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0 // isolate sharing behaviour
	res, err := Predict(p, cfg, []Transfer{
		{Src: "a", Dst: "b", Size: 4.6e8},
		{Src: "a", Dst: "b", Size: 4.6e8},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 10.4*1e-4 + 4.6e8/(0.92*100e6/2)
	for i, r := range res {
		if math.Abs(r.Duration-want)/want > 1e-6 {
			t.Errorf("flow %d duration = %v, want %v", i, r.Duration, want)
		}
	}
}

func TestShorterFlowReleasesBandwidth(t *testing.T) {
	// A short and a long flow: after the short one finishes the long one
	// speeds up. Closed form (ignoring latency, gamma off):
	// cap C=92e6; both at 46e6 until short (46e6 bytes) is done at t1=1s;
	// long transferred 46e6 of 138e6, remaining 92e6 at 92e6 -> 1s more.
	p := buildPair(t, 100e6, 0)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	res, err := Predict(p, cfg, []Transfer{
		{Src: "a", Dst: "b", Size: 46e6},
		{Src: "a", Dst: "b", Size: 138e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Duration-1) > 1e-6 {
		t.Errorf("short = %v, want 1", res[0].Duration)
	}
	if math.Abs(res[1].Duration-2) > 1e-6 {
		t.Errorf("long = %v, want 2", res[1].Duration)
	}
}

func TestRTTAwareSharing(t *testing.T) {
	// Two flows from a through the same NIC: one to a nearby host, one
	// far. Shares must be proportional to 1/RTT.
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	for _, h := range []string{"src", "near", "far"} {
		if _, err := as.AddHost(h, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	nic, _ := as.AddLink("nic", 125e6, 1e-4, platform.Shared)
	farlink, _ := as.AddLink("farlink", 1.25e9, 9e-4, platform.Shared)
	if err := as.AddRoute("src", "near", []platform.LinkUse{{Link: nic, Direction: platform.None}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("src", "far",
		[]platform.LinkUse{{Link: nic, Direction: platform.None}, {Link: farlink, Direction: platform.None}}, true); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TCPGamma = 0

	// Measure instantaneous shares via a long simulation where both stay
	// active: give both huge equal sizes; the near flow (RTT 2*10.4*1e-4)
	// must finish ~10x faster than the far flow (RTT 2*10.4*1e-3).
	res, err := Predict(p, cfg, []Transfer{
		{Src: "src", Dst: "near", Size: 1e9},
		{Src: "src", Dst: "far", Size: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	// near weight 10x far weight -> near gets 10/11 of NIC.
	nearRate := 0.92 * 125e6 * 10 / 11
	wantNear := 10.4*1e-4 + 1e9/nearRate
	if math.Abs(res[0].Duration-wantNear)/wantNear > 0.02 {
		t.Errorf("near duration = %v, want ~%v", res[0].Duration, wantNear)
	}
	// While sharing, the far flow got 1/11 of the NIC; after the near
	// flow finishes it ramps to full rate: closed form ~17.4 s vs 9.57.
	if ratio := res[1].Duration / res[0].Duration; ratio < 1.5 || ratio > 2.2 {
		t.Errorf("far/near ratio = %v, want ~1.8 (RTT-aware sharing)", ratio)
	}
}

// TestPaperWorkedExample reproduces the PNFS example of §IV-C2: two
// concurrent 500 MB transfers from capricorne-36 (Lyon), one to
// griffon-50 (Nancy), one to capricorne-1 (Lyon). The paper's SimGrid
// predicted 16.0044 s and 4.76841 s. With GammaUsesLatencyFactor (the
// configuration the paper's numbers imply) our fluid model must land
// within 2.5% of both.
func TestPaperWorkedExample(t *testing.T) {
	p := buildLyonNancy(t)
	cfg := DefaultConfig()
	cfg.GammaUsesLatencyFactor = true
	res, err := Predict(p, cfg, []Transfer{
		{Src: "capricorne-36", Dst: "griffon-50", Size: 5e8},
		{Src: "capricorne-36", Dst: "capricorne-1", Size: 5e8},
	})
	if err != nil {
		t.Fatal(err)
	}
	cross, intra := res[0].Duration, res[1].Duration
	if math.Abs(cross-16.0044)/16.0044 > 0.025 {
		t.Errorf("cross-site duration = %.4f s, paper 16.0044 s (>2.5%% off)", cross)
	}
	if math.Abs(intra-4.76841)/4.76841 > 0.025 {
		t.Errorf("intra-site duration = %.4f s, paper 4.76841 s (>2.5%% off)", intra)
	}
	// Order sanity: the intra transfer must win by a wide margin.
	if intra > cross/2 {
		t.Errorf("intra %.2f should be well under half of cross %.2f", intra, cross)
	}
}

func TestStaggeredStarts(t *testing.T) {
	// Second flow starts after the first finished: no interaction.
	p := buildPair(t, 100e6, 0)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	s := NewSimulation(p, cfg)
	s.AddTransferAt("a", "b", 92e6, 0)  // takes 1s alone
	s.AddTransferAt("a", "b", 92e6, 10) // starts at 10, takes 1s
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Duration-1) > 1e-6 {
		t.Errorf("first = %v", res[0].Duration)
	}
	if math.Abs(res[1].Duration-1) > 1e-6 {
		t.Errorf("second = %v (should be unaffected)", res[1].Duration)
	}
	if math.Abs(res[1].Completion-11) > 1e-6 {
		t.Errorf("second completion = %v, want 11", res[1].Completion)
	}
}

func TestBackgroundFlowSlowsTransfer(t *testing.T) {
	p := buildPair(t, 100e6, 1e-4)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0

	solo, err := Predict(p, cfg, []Transfer{{Src: "a", Dst: "b", Size: 92e6}})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p, cfg)
	s.AddTransfer("a", "b", 92e6)
	s.AddBackgroundFlow("b", "a")
	loaded, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Shared link: the background flow halves the share (equal RTT).
	ratio := loaded[0].Duration / solo[0].Duration
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("background flow ratio = %v, want ~2", ratio)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	// Opposite flows on a full-duplex link must not contend; on a shared
	// link they must.
	build := func(pol platform.SharingPolicy) *platform.Platform {
		p := platform.New("root", platform.RoutingFull)
		as := p.Root()
		as.AddHost("a", 1e9)
		as.AddHost("b", 1e9)
		l, _ := as.AddLink("l", 100e6, 0, pol)
		as.AddRoute("a", "b", []platform.LinkUse{{Link: l, Direction: platform.Up}}, true)
		return p
	}
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	transfers := []Transfer{
		{Src: "a", Dst: "b", Size: 92e6},
		{Src: "b", Dst: "a", Size: 92e6},
	}

	full, err := Predict(build(platform.FullDuplex), cfg, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full[0].Duration-1) > 1e-6 || math.Abs(full[1].Duration-1) > 1e-6 {
		t.Errorf("full duplex durations = %v, %v, want 1, 1", full[0].Duration, full[1].Duration)
	}

	shared, err := Predict(build(platform.Shared), cfg, transfers)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shared[0].Duration-2) > 1e-6 || math.Abs(shared[1].Duration-2) > 1e-6 {
		t.Errorf("shared durations = %v, %v, want 2, 2", shared[0].Duration, shared[1].Duration)
	}
}

func TestFatpipeNoContention(t *testing.T) {
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	as.AddHost("a", 1e9)
	as.AddHost("b", 1e9)
	l, _ := as.AddLink("fat", 100e6, 0, platform.Fatpipe)
	as.AddRoute("a", "b", []platform.LinkUse{{Link: l, Direction: platform.None}}, true)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	res, err := Predict(p, cfg, []Transfer{
		{Src: "a", Dst: "b", Size: 92e6},
		{Src: "a", Dst: "b", Size: 92e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each flow individually bounded at 92e6 B/s, no sharing: both 1s.
	for i, r := range res {
		if math.Abs(r.Duration-1) > 1e-6 {
			t.Errorf("fatpipe flow %d = %v, want 1", i, r.Duration)
		}
	}
}

func TestInvalidTransfers(t *testing.T) {
	p := buildPair(t, 1e8, 0)
	if _, err := Predict(p, DefaultConfig(), []Transfer{{Src: "a", Dst: "nope", Size: 1}}); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := Predict(p, DefaultConfig(), []Transfer{{Src: "a", Dst: "b", Size: -5}}); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := Predict(p, DefaultConfig(), []Transfer{{Src: "a", Dst: "a", Size: 5}}); err == nil {
		t.Error("self transfer accepted")
	}
}

func TestRunTwiceFails(t *testing.T) {
	p := buildPair(t, 1e8, 0)
	s := NewSimulation(p, DefaultConfig())
	s.AddTransfer("a", "b", 1e6)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestEngineExecSharing(t *testing.T) {
	p := buildPair(t, 1e8, 0)
	e := NewEngine(p, DefaultConfig())
	var ids [2]ActivityID
	for i := range ids {
		var err error
		if ids[i], err = e.AddExec("a", 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	_, t1 := e.Done(ids[0])
	_, t2 := e.Done(ids[1])
	// Two 1 Gflop tasks sharing a 1 Gflop/s host: both end at t=2.
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
		t.Errorf("exec completions = %v, %v, want 2, 2", t1, t2)
	}
}

func TestEngineRejectsPastStart(t *testing.T) {
	p := buildPair(t, 1e8, 0)
	e := NewEngine(p, DefaultConfig())
	if _, err := e.AddComm("a", "b", 1e6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddComm("a", "b", 1e6, 0); err == nil {
		t.Error("past start date accepted")
	}
}

func TestRemoveBackgroundFlow(t *testing.T) {
	p := buildPair(t, 100e6, 0)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	e := NewEngine(p, cfg)
	id, err := e.AddBackgroundFlow("b", "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := e.AddComm("a", "b", 92e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Run a few steps then drop the background flow; expect duration
	// between 1s (no contention) and 2s (full contention).
	if _, _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveBackgroundFlow(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	if _, done := e.Done(comm); math.Abs(done-1) > 1e-6 {
		t.Errorf("duration with removed background = %v, want ~1", done)
	}
	if err := e.RemoveBackgroundFlow(id); err == nil {
		t.Error("double removal accepted")
	}
	if err := e.RemoveBackgroundFlow(9999); err == nil {
		t.Error("bogus id accepted")
	}
}

// Property: on a single shared link with gamma off and zero latency,
// total transferred bytes equal capacity * makespan (work conservation).
func TestWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		n := 1 + g.Intn(8)
		p := platform.New("root", platform.RoutingFull)
		as := p.Root()
		as.AddHost("a", 1e9)
		as.AddHost("b", 1e9)
		l, _ := as.AddLink("l", 100e6, 0, platform.Shared)
		as.AddRoute("a", "b", []platform.LinkUse{{Link: l, Direction: platform.None}}, true)
		cfg := DefaultConfig()
		cfg.TCPGamma = 0
		var transfers []Transfer
		total := 0.0
		for i := 0; i < n; i++ {
			size := 1e6 + g.Float64()*1e8
			total += size
			transfers = append(transfers, Transfer{Src: "a", Dst: "b", Size: size})
		}
		res, err := Predict(p, cfg, transfers)
		if err != nil {
			return false
		}
		makespan := 0.0
		for _, r := range res {
			if r.Completion > makespan {
				makespan = r.Completion
			}
		}
		want := total / (0.92 * 100e6)
		return math.Abs(makespan-want)/want < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: adding a concurrent transfer never speeds up existing ones.
func TestContentionNeverHelps(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		p := buildPair(t, 100e6, 1e-4)
		cfg := DefaultConfig()
		base := []Transfer{{Src: "a", Dst: "b", Size: 1e6 + g.Float64()*1e8}}
		solo, err := Predict(p, cfg, base)
		if err != nil {
			return false
		}
		crowd := append(base, Transfer{Src: "a", Dst: "b", Size: 1e6 + g.Float64()*1e8})
		both, err := Predict(p, cfg, crowd)
		if err != nil {
			return false
		}
		return both[0].Duration >= solo[0].Duration-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPredictSingleTransfer(b *testing.B) {
	p := buildPair(b, 125e6, 1e-4)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(p, cfg, []Transfer{{Src: "a", Dst: "b", Size: 1e9}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictWorkedExample(b *testing.B) {
	p := buildLyonNancy(b)
	cfg := DefaultConfig()
	cfg.GammaUsesLatencyFactor = true
	transfers := []Transfer{
		{Src: "capricorne-36", Dst: "griffon-50", Size: 5e8},
		{Src: "capricorne-36", Dst: "capricorne-1", Size: 5e8},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(p, cfg, transfers); err != nil {
			b.Fatal(err)
		}
	}
}
