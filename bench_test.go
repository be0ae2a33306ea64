// Package pilgrim_bench holds the top-level benchmark harness: one
// benchmark per figure and claim of the paper's evaluation (§IV-C2, §V),
// plus the ablation benches for the design choices discussed in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem .
//
// Figure-shaped data (the full error-vs-size series) is produced by
// cmd/experiments; these benchmarks measure the cost of regenerating each
// figure's workload cell and pin the paper's performance claims.
package pilgrim_bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pilgrim/internal/experiments"
	"pilgrim/internal/g5k"
	"pilgrim/internal/nws"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/scenario"
	"pilgrim/internal/sim"
	"pilgrim/internal/stats"
	"pilgrim/internal/store"
	"pilgrim/internal/testbed"
)

// walRegistry builds a WAL-backed registry at the default fsync policy:
// the durable path the registry benchmarks measure, pinning the storage
// layer's overhead on the serving side (acceptance: < 5% vs the
// in-memory baseline).
func walRegistry(b *testing.B) *pilgrim.Registry {
	b.Helper()
	w, rec, err := store.Open(store.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	reg := pilgrim.NewRegistry()
	if err := reg.SetStorage(w, rec); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { reg.Close() })
	return reg
}

var (
	setupOnce sync.Once
	runner    *experiments.Runner
	entry     pilgrim.PlatformEntry
	setupErr  error
)

func setup(b testing.TB) *experiments.Runner {
	b.Helper()
	setupOnce.Do(func() {
		ref := g5k.Default()
		plat, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest})
		if err != nil {
			setupErr = err
			return
		}
		entry = pilgrim.PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}
		runner, setupErr = experiments.NewRunner(ref, testbed.DefaultConfig(), entry)
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	return runner
}

// benchFigure measures one measurement+prediction cell of a paper figure
// (mid-sweep 774 MB transfers, one repetition per iteration).
func benchFigure(b *testing.B, id string) {
	r := setup(b)
	spec, ok := experiments.FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	spec.Reps = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i + 1)
		if _, err := r.RunCell(spec, 7.74e8); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 3-5: sagittaire CLUSTER experiments.
func BenchmarkFigure03SagittaireCluster1x10(b *testing.B)  { benchFigure(b, "fig3") }
func BenchmarkFigure04SagittaireCluster10x10(b *testing.B) { benchFigure(b, "fig4") }
func BenchmarkFigure05SagittaireCluster30x30(b *testing.B) { benchFigure(b, "fig5") }

// Figures 6-9: graphene CLUSTER experiments.
func BenchmarkFigure06GrapheneCluster1x10(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFigure07GrapheneCluster10x10(b *testing.B) { benchFigure(b, "fig7") }
func BenchmarkFigure08GrapheneCluster30x30(b *testing.B) { benchFigure(b, "fig8") }
func BenchmarkFigure09GrapheneCluster50x50(b *testing.B) { benchFigure(b, "fig9") }

// Figures 10-11: GRID_MULTI experiments.
func BenchmarkFigure10GridMulti10x30(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFigure11GridMulti60x60(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkSummaryStats measures the §V-B global statistics computation
// over a reduced campaign's samples.
func BenchmarkSummaryStats(b *testing.B) {
	r := setup(b)
	var results []*experiments.Result
	for _, id := range []string{"fig4", "fig7"} {
		spec, _ := experiments.FigureByID(id)
		spec.Sizes = []float64{5.99e7, 7.74e8}
		spec.Reps = 2
		res, err := r.RunFigure(spec)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Summarize(results)
	}
}

// BenchmarkPredict30Transfers pins the paper's performance claim
// (§IV-C2): "a typical request ... for a prediction involving 30
// concurrent transfers on Grid'5000 takes less than 0.1 s". The ns/op
// reported here is the whole PNFS prediction path for 30 transfers.
func BenchmarkPredict30Transfers(b *testing.B) {
	setup(b)
	rng := stats.NewRNG(42)
	plat := entry.Platform
	hosts := plat.Hosts()
	var reqs []pilgrim.TransferRequest
	idx := rng.Sample(len(hosts), 60)
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pilgrim.PredictTransfers(entry, reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict30TransfersCached measures the same PNFS request
// answered through the forecast cache — the repeated-query path of a
// resource management system polling the same decision. After the first
// iteration every request is a cache hit: canonicalize, look up, permute.
func BenchmarkPredict30TransfersCached(b *testing.B) {
	setup(b)
	rng := stats.NewRNG(42)
	plat := entry.Platform
	hosts := plat.Hosts()
	var reqs []pilgrim.TransferRequest
	idx := rng.Sample(len(hosts), 60)
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	cache := pilgrim.NewForecastCache(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.PredictCtx(context.Background(), "g5k_test", entry, reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Misses != 1 && b.N > 1 {
		b.Fatalf("expected a single miss, got %+v", st)
	}
}

// BenchmarkIncrementalSharing pins the tentpole directly: a 50-transfer
// prediction, reporting the solver's variables-touched-per-resharing
// ratio (a rebuild-the-world solver touches every active flow every
// time; the incremental one touches only disturbed components).
func BenchmarkIncrementalSharing(b *testing.B) {
	setup(b)
	rng := stats.NewRNG(9)
	plat := entry.Platform
	hosts := plat.Hosts()
	idx := rng.Sample(len(hosts), 100)
	var touched, reshared float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.NewSnapshotSimulation(plat.Snapshot(), entry.Config)
		for k := 0; k < 50; k++ {
			s.AddTransfer(hosts[idx[k]].ID, hosts[idx[50+k]].ID, 5e8)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		st := s.Engine().SharingStats()
		touched += float64(st.VariablesTouched)
		reshared += float64(st.Resharings)
	}
	b.ReportMetric(touched/float64(b.N), "vars-touched/op")
	b.ReportMetric(touched/reshared, "vars-touched/resharing")
}

// crossSiteRing returns 64 cold-miss-shaped requests on g5k_test: 60
// transfers each, every one from a random host to a host on another site,
// sizes log-uniform in 0.1–10 GB.
func crossSiteRing() [][]sim.Transfer {
	bySite := map[string][]string{}
	var sites []string
	for _, h := range entry.Platform.Hosts() {
		_, rest, _ := strings.Cut(h.ID, ".")
		site, _, _ := strings.Cut(rest, ".")
		if _, ok := bySite[site]; !ok {
			sites = append(sites, site)
		}
		bySite[site] = append(bySite[site], h.ID)
	}
	rng := stats.NewRNG(13)
	ring := make([][]sim.Transfer, 64)
	for r := range ring {
		for k := 0; k < 60; k++ {
			si := rng.Intn(len(sites))
			di := (si + 1 + rng.Intn(len(sites)-1)) % len(sites)
			src, dst := bySite[sites[si]], bySite[sites[di]]
			ring[r] = append(ring[r], sim.Transfer{
				Src: src[rng.Intn(len(src))], Dst: dst[rng.Intn(len(dst))],
				Size: math.Floor(1e8 * math.Pow(100, rng.Float64())),
			})
		}
	}
	return ring
}

// BenchmarkCold60CrossSite is the function-level record of the system
// benchmark's cold-miss workload: one uncached 60-transfer prediction on
// g5k_test, every transfer from a random host to a host on another site
// (Fig. 11's GRID_MULTI shape), sizes log-uniform in 0.1–10 GB. The
// transfers share the backbone, so they form one flow component and each
// completion re-solves it: touched/op is how many variables those
// re-solves re-filled. A ring of distinct requests keeps one request's
// event order from flattering the number.
func BenchmarkCold60CrossSite(b *testing.B) {
	setup(b)
	snap := entry.Platform.Snapshot()
	ring := crossSiteRing()
	var touched, reshared int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.NewPooledSnapshotSimulation(snap, entry.Config)
		for _, t := range ring[i%len(ring)] {
			s.AddTransfer(t.Src, t.Dst, t.Size)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		st := s.Engine().SharingStats()
		touched += st.VariablesTouched
		reshared += st.Resharings
		s.Release()
	}
	b.ReportMetric(float64(touched)/float64(b.N), "touched/op")
	b.ReportMetric(float64(reshared)/float64(b.N), "resharings/op")
}

// selectFastestHypotheses builds n disjoint 8-transfer hypotheses over
// the full platform for the select_fastest benchmarks.
func selectFastestHypotheses(b *testing.B, n int) []pilgrim.Hypothesis {
	b.Helper()
	rng := stats.NewRNG(17)
	hosts := entry.Platform.Hosts()
	idx := rng.Sample(len(hosts), 2*8*n)
	hyps := make([]pilgrim.Hypothesis, n)
	for h := range hyps {
		for k := 0; k < 8; k++ {
			i := (h*8 + k) * 2
			hyps[h].Transfers = append(hyps[h].Transfers, pilgrim.TransferRequest{
				Src: hosts[idx[i]].ID, Dst: hosts[idx[i+1]].ID, Size: 5e8 + float64(float64(h)*1e6),
			})
		}
	}
	return hyps
}

// benchSelectFastest measures one uncached select_fastest request — 8
// hypotheses of 8 transfers each — on a pool of the given width. The
// sequential/parallel pair pins the near-linear speedup of the worker
// pool (and the thread-safety cost when workers=1).
func benchSelectFastest(b *testing.B, workers int) {
	setup(b)
	hyps := selectFastestHypotheses(b, 8)
	pool := pilgrim.NewWorkerPool(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pool.SelectFastest(entry, hyps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectFastest8x8Sequential(b *testing.B) { benchSelectFastest(b, 1) }
func BenchmarkSelectFastest8x8Parallel(b *testing.B)   { benchSelectFastest(b, 0) }

// BenchmarkWarmRouteSnapshotParallel measures concurrent warm-route
// resolution through the compiled snapshot, where a warm route is three
// atomic loads (row, slot, chunk directory) and no lock: forecast workers
// never serialize on route resolution.
func BenchmarkWarmRouteSnapshotParallel(b *testing.B) {
	setup(b)
	hosts := entry.Platform.Hosts()
	idx := stats.NewRNG(5).Sample(len(hosts), 128)
	pairs := make([][2]string, 64)
	for i := range pairs {
		pairs[i] = [2]string{hosts[idx[i]].ID, hosts[idx[64+i]].ID}
	}
	snap := entry.Platform.Snapshot()
	for _, p := range pairs {
		if _, err := snap.Route(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			p := pairs[i&(len(pairs)-1)]
			i++
			if _, err := snap.Route(p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConcurrentPredict30 measures whole warm-route predictions
// (30 transfers each) issued from concurrent requesters — the production
// shape of a forecast service under load, where snapshot reads must not
// serialize the workers.
func BenchmarkConcurrentPredict30(b *testing.B) {
	setup(b)
	rng := stats.NewRNG(42)
	hosts := entry.Platform.Hosts()
	var reqs []pilgrim.TransferRequest
	idx := rng.Sample(len(hosts), 60)
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	pinned := entry.WithSnapshot()
	if _, err := pilgrim.PredictTransfers(pinned, reqs, nil); err != nil {
		b.Fatal(err) // warm routes and engine pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := pilgrim.PredictTransfers(pinned, reqs, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWithLinkState measures deriving a new epoch from a measurement
// batch of one link — the copy-on-write fast path of the
// measure→update→forecast loop.
func BenchmarkWithLinkState(b *testing.B) {
	setup(b)
	snap := entry.Platform.Snapshot()
	upd := []platform.LinkUpdate{{Link: entry.Platform.Links()[0].ID, Bandwidth: 1e8, Latency: 2e-4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.WithLinkState(upd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimelineAppend measures folding one timestamped single-link
// observation into a platform timeline — the per-sample cost of the
// metrology ingest loop. It stays amortized O(changed links): a
// copy-on-write epoch derivation plus O(1) ring bookkeeping (evictions
// after the ring fills included).
func BenchmarkTimelineAppend(b *testing.B) {
	setup(b)
	snap := entry.Platform.Snapshot()
	tl := platform.NewTimeline(snap, 0)
	upd := []platform.LinkUpdate{{Link: entry.Platform.Links()[0].ID, Bandwidth: 1e8, Latency: 2e-4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upd[0].Bandwidth = 1e8 + float64(i)
		if _, err := tl.Append(int64(i), "bench", upd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictAtHorizon measures the full future-horizon prediction
// path: resolve at=T past the newest observation (NWS forecast epoch,
// memoized per observation generation) and simulate the standard
// 30-transfer request against it. The delta against
// BenchmarkPredict30Transfers is the whole cost of forecasting at a
// horizon instead of now.
func BenchmarkPredictAtHorizon(b *testing.B) {
	setup(b)
	reg := walRegistry(b)
	if err := reg.Add("g5k_test", entry); err != nil {
		b.Fatal(err)
	}
	// A warm observation history over a few access links.
	links := entry.Platform.Links()
	for i := 0; i < 32; i++ {
		var ups []platform.LinkUpdate
		for l := 0; l < 4; l++ {
			ups = append(ups, platform.LinkUpdate{
				Link: links[l].ID, Bandwidth: 9e7 + float64(float64((i*31+l*7)%13)*1e6), Latency: -1,
			})
		}
		if _, err := reg.ObserveLinkState("g5k_test", int64(1000+i), "bench", ups); err != nil {
			b.Fatal(err)
		}
	}
	rng := stats.NewRNG(42)
	hosts := entry.Platform.Hosts()
	var reqs []pilgrim.TransferRequest
	idx := rng.Sample(len(hosts), 60)
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	at := int64(1000 + 31 + 600) // ten minutes past the newest observation
	if _, err := reg.GetAt("g5k_test", at); err != nil {
		b.Fatal(err) // materialize the forecast epoch and warm routes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := reg.GetAt("g5k_test", at)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pilgrim.PredictTransfers(e, reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyOverlay measures deriving a scenario epoch — a batch of 4
// link mutations and one host failure folded into one copy-on-write
// derivation with one epoch id — the per-scenario setup cost of the
// evaluate endpoint.
func BenchmarkApplyOverlay(b *testing.B) {
	setup(b)
	snap := entry.Platform.Snapshot()
	links := entry.Platform.Links()
	nan := math.NaN()
	overlay := make([]platform.OverlayLink, 4)
	for i := range overlay {
		li, ok := snap.LinkIndex(links[i].ID)
		if !ok {
			b.Fatal("missing link")
		}
		overlay[i] = platform.OverlayLink{Link: li, Bandwidth: 6e7 + float64(float64(i)*1e6), Latency: nan}
	}
	hosts := []platform.OverlayHost{{Host: 0, Speed: 0}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snap.ApplyOverlay(overlay, hosts, "bench overlay"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate30x8 pins the batched-evaluation claim: 8 what-if
// scenarios × one 30-transfer query, answered through the full evaluate
// machinery (overlay cache, per-snapshot plan runner, forecast-cache
// dedup). In the steady state of a polling scheduler the derived epochs
// and their answers are all memoized, so the per-scenario marginal cost —
// reported as scenario-ns/op — must sit far below one cold Predict30
// (BenchmarkPredict30Transfers).
func BenchmarkEvaluate30x8(b *testing.B) {
	setup(b)
	reg := walRegistry(b)
	if err := reg.Add("g5k_test", entry); err != nil {
		b.Fatal(err)
	}
	ev := &pilgrim.Evaluator{
		Platforms: reg,
		Cache:     pilgrim.NewForecastCache(1024),
		Pool:      pilgrim.NewWorkerPool(0),
		Overlays:  pilgrim.NewOverlayCache(64),
	}
	rng := stats.NewRNG(42)
	hosts := entry.Platform.Hosts()
	links := entry.Platform.Links()
	idx := rng.Sample(len(hosts), 60)
	var reqs []pilgrim.TransferRequest
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	scenarios := []scenario.Scenario{{Name: "baseline"}}
	for s := 1; s < 8; s++ {
		scenarios = append(scenarios, scenario.Scenario{
			Name: fmt.Sprintf("deg-%d", s),
			Mutations: []scenario.Mutation{{
				Op: scenario.OpScaleLink, Link: links[s].ID, BandwidthFactor: 0.5,
			}},
		})
	}
	req := pilgrim.EvaluateRequest{
		Scenarios: scenarios,
		Queries: []pilgrim.EvalQuery{
			{Kind: pilgrim.QueryPredictTransfers, Transfers: reqs},
		},
	}
	// Warm pass: derive the 8 epochs and run the 8 cold simulations.
	if _, err := ev.Evaluate("g5k_test", req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ev.Evaluate("g5k_test", req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Stats.Simulations != 0 {
			b.Fatalf("steady state re-simulated: %+v", resp.Stats)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8, "scenario-ns/op")
}

// BenchmarkPlatformG5KTest / Cabinets measure generating the two platform
// flavours of §V-A (the paper: g5k_test is "less optimized ... in size
// and loading time").
func BenchmarkPlatformG5KTest(b *testing.B) {
	ref := g5k.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlatformSetup measures assembling g5k_test the way every
// server start does: Generate, then compile the base snapshot. live-B and
// live-objs are what one assembled platform (builder + snapshot) keeps on
// the heap after a collection — the set every later GC cycle marks.
func BenchmarkPlatformSetup(b *testing.B) {
	ref := g5k.Default()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var plat *platform.Platform
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest})
		if err != nil {
			b.Fatal(err)
		}
		p.Snapshot()
		plat = p
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)), "live-B")
	b.ReportMetric(float64(int64(after.HeapObjects)-int64(before.HeapObjects)), "live-objs")
	runtime.KeepAlive(plat)
}

// BenchmarkRouteMemoAllPairs measures compiling g5k_test and publishing
// all 265 740 ordered host pairs into the fresh snapshot — the route memo a
// long-running server converges to. Each iteration compiles a platform
// generated outside the timer, since a platform compiles once. memo-B and
// memo-objs are what the published routes keep on the heap beyond the
// compiled snapshot; gc-us is one forced collection with that memo live.
func BenchmarkRouteMemoAllPairs(b *testing.B) {
	setup(b)
	var hosts []string
	for _, h := range entry.Platform.Hosts() {
		hosts = append(hosts, h.ID)
	}
	generate := func() *platform.Platform {
		p, err := platgen.Generate(g5k.Default(), platgen.Options{Variant: platgen.G5KTest})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	var before, after runtime.MemStats
	snap := generate().Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := generate()
		b.StartTimer()
		snap = p.Snapshot()
		for _, src := range hosts {
			for _, dst := range hosts {
				if src == dst {
					continue
				}
				if _, err := snap.Route(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	start := time.Now()
	runtime.GC()
	gc := time.Since(start)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)), "memo-B")
	b.ReportMetric(float64(int64(after.HeapObjects)-int64(before.HeapObjects)), "memo-objs")
	b.ReportMetric(float64(gc.Microseconds()), "gc-us")
	runtime.KeepAlive(snap)
}

// BenchmarkRegistryRestart measures a durable pilgrimd restart: store.Open
// over a data directory holding 2000 logged observations of 8 links each
// (bench/'s ingest-churn shape: links from a few dozen, bandwidths at
// 50-100 % of nominal, latencies kept), then Registry.Add of g5k_test,
// which replays that log tail into the timeline and the NWS bank. The
// directory is built once, outside the timer; a restart leaves it as it was.
func BenchmarkRegistryRestart(b *testing.B) {
	setup(b)
	snap := entry.Platform.Snapshot()
	dir := b.TempDir()
	w, rec, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	reg := pilgrim.NewRegistry()
	if err := reg.SetStorage(w, rec); err != nil {
		b.Fatal(err)
	}
	if err := reg.Add("g5k_test", entry); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(27)
	pool := rng.Sample(snap.NumLinks(), 48)
	for k := 0; k < 2000; k++ {
		updates := make([]platform.LinkUpdate, 0, 8)
		for _, i := range rng.Sample(len(pool), 8) {
			li := int32(pool[i])
			f := 0.5 + float64(rng.Intn(500))/1000
			updates = append(updates, platform.LinkUpdate{
				Link: snap.LinkName(li), Bandwidth: math.Floor(snap.LinkBandwidth(li) * f), Latency: -1})
		}
		if _, err := reg.ObserveLinkState("g5k_test", 1336111200+int64(k), "bench", updates); err != nil {
			b.Fatal(err)
		}
	}
	if err := reg.Close(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, rec, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		reg := pilgrim.NewRegistry()
		reg.SetTimelineDepth(pilgrim.DefaultTimelineDepth)
		if err := reg.SetStorage(w, rec); err != nil {
			b.Fatal(err)
		}
		if err := reg.Add("g5k_test", entry); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st, _ := reg.TimelineStats("g5k_test"); st.Appends != 2000 {
			b.Fatalf("restart restored %d observations, want 2000", st.Appends)
		}
		if err := reg.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkPlatformG5KCabinets(b *testing.B) {
	ref := g5k.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KCabinets}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingHierarchical / Flat are the AS ablation of §IV-C2: the
// paper notes that before hierarchical routing, flat Grid'5000 routing
// tables were too large to simulate. Allocated bytes per op show the
// route-storage blowup of the flat platform. Routes resolve through the
// compiled snapshot, the resolver forecasts use, so each op also pays
// one Compile.
func BenchmarkRoutingHierarchical(b *testing.B) {
	ref := g5k.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plat, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest})
		if err != nil {
			b.Fatal(err)
		}
		// Resolve a representative sample of routes (full resolution is
		// quadratic; the flat variant pays it at build time instead).
		snap := plat.Snapshot()
		hosts := plat.Hosts()
		for k := 0; k < 100; k++ {
			a := hosts[(k*37)%len(hosts)]
			c := hosts[(k*53+11)%len(hosts)]
			if a == c {
				continue
			}
			if _, err := snap.Route(a.ID, c.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRoutingFlat(b *testing.B) {
	ref := g5k.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plat, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest, Flat: true})
		if err != nil {
			b.Fatal(err)
		}
		snap := plat.Snapshot()
		hosts := plat.Hosts()
		for k := 0; k < 100; k++ {
			a := hosts[(k*37)%len(hosts)]
			c := hosts[(k*53+11)%len(hosts)]
			if a == c {
				continue
			}
			if _, err := snap.Route(a.ID, c.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBaselineNWS measures the statistical baseline (§III-B): a
// full NWS-style forecast (probe history update + prediction) for the
// same 30-transfer batch. It is orders of magnitude cheaper than the
// simulation — and structurally blind to the contention between the
// requested transfers (see nws.TestNWSContentionBlindness).
func BenchmarkBaselineNWS(b *testing.B) {
	forecasters := make([]*nws.PathForecaster, 30)
	rng := stats.NewRNG(7)
	for i := range forecasters {
		forecasters[i] = nws.NewPathForecaster()
		for probe := 0; probe < 50; probe++ {
			forecasters[i].Observe(100e6+float64(rng.Float64()*20e6), 1e-3)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range forecasters {
			if _, ok := f.PredictTransfer(5e8); !ok {
				b.Fatal("no prediction")
			}
		}
	}
}

// BenchmarkEquipmentLimitsAblation measures the prediction cost with the
// future-work equipment-capacity constraints enabled (extra backplane
// links on every route).
func BenchmarkEquipmentLimitsAblation(b *testing.B) {
	ref := g5k.Default()
	plat, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest, EquipmentLimits: true})
	if err != nil {
		b.Fatal(err)
	}
	e := pilgrim.PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}
	rng := stats.NewRNG(42)
	hosts := plat.Hosts()
	var reqs []pilgrim.TransferRequest
	idx := rng.Sample(len(hosts), 60)
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pilgrim.PredictTransfers(e, reqs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPredictionLatencyClaim asserts the paper's <0.1s figure directly:
// one 30-transfer prediction on the full platform must complete within
// 100 ms of wall-clock on commodity hardware.
func TestPredictionLatencyClaim(t *testing.T) {
	ref := g5k.Default()
	plat, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	e := pilgrim.PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}
	rng := stats.NewRNG(1)
	hosts := plat.Hosts()
	idx := rng.Sample(len(hosts), 60)
	var reqs []pilgrim.TransferRequest
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	// Warm the route cache (the server does this naturally over time).
	if _, err := pilgrim.PredictTransfers(e, reqs, nil); err != nil {
		t.Fatal(err)
	}
	start := nowMonotonic()
	if _, err := pilgrim.PredictTransfers(e, reqs, nil); err != nil {
		t.Fatal(err)
	}
	elapsed := nowMonotonic() - start
	if elapsed > 0.1 {
		t.Errorf("30-transfer prediction took %.3fs, paper claims < 0.1s", elapsed)
	}
}

// benchEvaluateDifferential measures the marginal per-scenario cost of an
// evaluate batch whose derived epochs are fresh on every iteration — the
// warm-start headline. 8 scenarios (baseline + 7 single-link bandwidth
// scales on links off the query's routes) × one 30-transfer query, with
// the scale factor changing every iteration so every derived epoch is
// new: nothing is answered by a member-level cache entry, and only the
// differential machinery (O(mutations) delta, footprint classification,
// base-answer reuse) stands between a scenario and a full 30-transfer
// simulation. The cold variant runs the identical workload with
// differential evaluation disabled and pays 7 full simulations per
// iteration. The lone variant is the single-picture shape (a campaign
// step, a RemoteBackend call): the baseline scenario alone, with transfer
// sizes nobody has asked for, so every iteration is one cold simulation
// through the runner's nothing-to-share case.
func benchEvaluateDifferential(b *testing.B, arm string) {
	disable, derived := arm == "cold", 7
	if arm == "lone" {
		derived = 0
	}
	setup(b)
	reg := walRegistry(b)
	if err := reg.Add("g5k_test", entry); err != nil {
		b.Fatal(err)
	}
	ev := &pilgrim.Evaluator{
		Platforms:           reg,
		Cache:               pilgrim.NewForecastCache(1024),
		Pool:                pilgrim.NewWorkerPool(0),
		Overlays:            pilgrim.NewOverlayCache(64),
		DisableDifferential: disable,
	}
	rng := stats.NewRNG(42)
	hosts := entry.Platform.Hosts()
	idx := rng.Sample(len(hosts), 60)
	used := make(map[int]bool, 60)
	for _, i := range idx {
		used[i] = true
	}
	var reqs []pilgrim.TransferRequest
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	// Mutate the NIC links of hosts outside the workload: off every route
	// the query touches, so a fresh derived epoch still reuses the base
	// answers (the per-iteration assertions below prove the links really
	// are off-footprint).
	linkID := make(map[string]bool, len(entry.Platform.Links()))
	for _, l := range entry.Platform.Links() {
		linkID[l.ID] = true
	}
	var spareNICs []string
	for i := range hosts {
		if used[i] || !linkID[hosts[i].ID+"_nic"] {
			continue
		}
		spareNICs = append(spareNICs, hosts[i].ID+"_nic")
		if len(spareNICs) == 7 {
			break
		}
	}
	if len(spareNICs) < 7 {
		b.Fatalf("only %d spare NIC links", len(spareNICs))
	}
	request := func(i int) pilgrim.EvaluateRequest {
		scenarios := []scenario.Scenario{{Name: "baseline"}}
		for s := 0; s < derived; s++ {
			scenarios = append(scenarios, scenario.Scenario{
				Name: fmt.Sprintf("deg-%d", s),
				Mutations: []scenario.Mutation{{
					Op:   scenario.OpScaleLink,
					Link: spareNICs[s],
					// Fresh factor per iteration: a new overlay key, a new
					// derived epoch, no member-level cache warmth.
					BandwidthFactor: 0.5 + float64(float64(s)*0.01) + float64(float64(i)*1e-9),
				}},
			})
		}
		if arm == "lone" {
			for k := range reqs {
				reqs[k].Size = 5e8 + float64(i)
			}
		}
		return pilgrim.EvaluateRequest{
			Scenarios: scenarios,
			Queries: []pilgrim.EvalQuery{
				{Kind: pilgrim.QueryPredictTransfers, Transfers: reqs},
			},
		}
	}
	// Warm pass: memoize the base-epoch answer (a polling scheduler's
	// steady state); the derived epochs stay fresh every iteration.
	if _, err := ev.Evaluate("g5k_test", request(-1)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ev.Evaluate("g5k_test", request(i))
		if err != nil {
			b.Fatal(err)
		}
		switch {
		case arm == "lone":
			if resp.Stats.Simulations != 1 || resp.Stats.CacheHits != 0 {
				b.Fatalf("lone request did not simulate once: %+v", resp.Stats)
			}
		case disable:
			if resp.Stats.Simulations != 7 {
				b.Fatalf("cold path simulated %d, want 7: %+v", resp.Stats.Simulations, resp.Stats)
			}
		case resp.Stats.ForkReused != 7 || resp.Stats.Simulations != 0:
			b.Fatalf("differential path fell off the reuse fast path: %+v", resp.Stats)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(1+derived), "scenario-ns/op")
}

// BenchmarkEvaluateDifferential30x8 pins the warm-start acceptance
// criterion: the differential variant's scenario-ns/op must undercut the
// cold variant's by >= 4x. Measured (median of 5 runs, 2-vCPU Xeon
// 2.1 GHz, Go 1.24): 5.9 vs 45.7 µs per scenario, 7.8x (47 vs 366 µs per
// request); the lone arm's one cold simulation is 55 µs. Every derived
// scenario of this workload reuses the base answer, so the differential
// arm runs no simulation at all.
func BenchmarkEvaluateDifferential30x8(b *testing.B) {
	for _, arm := range []string{"differential", "cold", "lone"} {
		b.Run(arm, func(b *testing.B) { benchEvaluateDifferential(b, arm) })
	}
}
