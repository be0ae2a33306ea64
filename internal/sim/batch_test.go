package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pilgrim/internal/platform"
)

// batchPlatform: three hosts behind shared NIC links on a common router.
func batchPlatform(t testing.TB) *platform.Platform {
	t.Helper()
	p := platform.New("batch", platform.RoutingFull)
	as := p.Root()
	if _, err := as.AddRouter("gw"); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"a", "b", "c"} {
		if _, err := as.AddHost(h, 1e9); err != nil {
			t.Fatal(err)
		}
		l, err := as.AddLink(h+"_nic", 1e8, 1e-4, platform.Shared)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.AddRoute(h, "gw", []platform.LinkUse{{Link: l, Direction: platform.Up}}, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}} {
		links := []platform.LinkUse{
			{Link: p.Link(pair[0] + "_nic"), Direction: platform.Up},
			{Link: p.Link(pair[1] + "_nic"), Direction: platform.Down},
		}
		if err := as.AddRoute(pair[0], pair[1], links, true); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestRunPlanMatchesIndividualSimulations pins the plan runner's
// determinism: a plan's results must be bit-identical to running each
// query through its own Simulation.
func TestRunPlanMatchesIndividualSimulations(t *testing.T) {
	p := batchPlatform(t)
	snap := p.Snapshot()
	cfg := DefaultConfig()
	queries := []PlanQuery{
		{Transfers: []Transfer{{Src: "a", Dst: "b", Size: 5e8}}},
		{Transfers: []Transfer{
			{Src: "a", Dst: "b", Size: 5e8},
			{Src: "a", Dst: "c", Size: 2e8},
		}},
		{Transfers: []Transfer{{Src: "b", Dst: "c", Size: 1e8}},
			Background: [][2]string{{"a", "c"}}},
	}
	plan := RunPlan(snap, cfg, queries)
	for qi, q := range queries {
		s := NewSnapshotSimulation(snap, cfg)
		for _, bg := range q.Background {
			s.AddBackgroundFlow(bg[0], bg[1])
		}
		for _, tr := range q.Transfers {
			s.AddTransferAt(tr.Src, tr.Dst, tr.Size, tr.Start)
		}
		want, err := s.Run()
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if plan[qi].Err != nil {
			t.Fatalf("query %d: plan error %v", qi, plan[qi].Err)
		}
		if len(plan[qi].Results) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(plan[qi].Results), len(want))
		}
		for i := range want {
			if math.Float64bits(plan[qi].Results[i].Duration) != math.Float64bits(want[i].Duration) {
				t.Errorf("query %d transfer %d: plan %v != solo %v",
					qi, i, plan[qi].Results[i].Duration, want[i].Duration)
			}
		}
	}
}

// TestRunPlanIsolatesFailures: a query over a failed link reports its own
// error; the queries before and after it still answer.
func TestRunPlanIsolatesFailures(t *testing.T) {
	p := batchPlatform(t)
	base := p.Snapshot()
	li, ok := base.LinkIndex("b_nic")
	if !ok {
		t.Fatal("missing link")
	}
	snap, err := base.ApplyOverlay([]platform.OverlayLink{{Link: li, Bandwidth: 0, Latency: math.NaN()}}, nil, "fail b_nic")
	if err != nil {
		t.Fatal(err)
	}
	plan := RunPlan(snap, DefaultConfig(), []PlanQuery{
		{Transfers: []Transfer{{Src: "a", Dst: "c", Size: 1e8}}},
		{Transfers: []Transfer{{Src: "a", Dst: "b", Size: 1e8}}}, // crosses the failed link
		{Transfers: []Transfer{{Src: "a", Dst: "c", Size: 1e8}}},
	})
	if plan[0].Err != nil || plan[2].Err != nil {
		t.Fatalf("healthy queries failed: %v / %v", plan[0].Err, plan[2].Err)
	}
	if plan[1].Err == nil || !strings.Contains(plan[1].Err.Error(), "is down") {
		t.Fatalf("failed-link query error = %v", plan[1].Err)
	}
	if math.Float64bits(plan[0].Results[0].Duration) != math.Float64bits(plan[2].Results[0].Duration) {
		t.Error("identical queries around a failure diverged")
	}
}

// TestDownResourcesRejectActivities: failed hosts reject comms and execs
// with precise errors.
func TestDownResourcesRejectActivities(t *testing.T) {
	p := batchPlatform(t)
	base := p.Snapshot()
	hi, ok := base.HostIndex("c")
	if !ok {
		t.Fatal("missing host")
	}
	snap, err := base.ApplyOverlay(nil, []platform.OverlayHost{{Host: hi, Speed: 0}}, "fail host c")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineSnapshot(snap, DefaultConfig())
	if _, err := e.AddExec("c", 1e9, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("exec on failed host: err = %v", err)
	}
	if _, err := e.AddComm("a", "c", 1e8, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("comm to failed host: err = %v", err)
	}
	if _, err := e.AddComm("c", "a", 1e8, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("comm from failed host: err = %v", err)
	}
	// Healthy pairs still work on the same epoch.
	if _, err := e.AddComm("a", "b", 1e8, 0); err != nil {
		t.Errorf("healthy comm rejected: %v", err)
	}
}

// callbackOracle answers q the way the forecast service did before
// RunQuery: the test drives Engine.AddComm itself and records every
// completion date as RunToCompletion's observer reports it — never from
// the Done ledger RunQuery reads — with the error texts the
// per-transfer-callback runner produced.
func callbackOracle(e *Engine, q *PlanQuery) ([]float64, error) {
	for _, bg := range q.Background {
		if _, err := e.AddBackgroundFlow(bg[0], bg[1], 0); err != nil {
			return nil, fmt.Errorf("sim: background flow %s->%s: %w", bg[0], bg[1], err)
		}
	}
	dates := make([]float64, len(q.Transfers))
	transfer := make(map[ActivityID]int, len(q.Transfers))
	for i, t := range q.Transfers {
		dates[i] = math.NaN()
		id, err := e.AddComm(t.Src, t.Dst, t.Size, t.Start)
		if err != nil {
			return nil, fmt.Errorf("sim: transfer %s->%s: %w", t.Src, t.Dst, err)
		}
		transfer[id] = i
	}
	n, err := e.RunToCompletion(func(id ActivityID) error {
		i, ok := transfer[id]
		if !ok {
			return fmt.Errorf("oracle: activity %d is no transfer", id)
		}
		dates[i] = e.Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n != len(q.Transfers) {
		return nil, fmt.Errorf("sim: %d of %d transfers completed", n, len(q.Transfers))
	}
	return dates, nil
}

// randomQuery draws a query over buildRandomPlatform's hosts: background
// flows, staggered starts, and transfers repeated verbatim.
func randomQuery(rng *rand.Rand, hosts int) PlanQuery {
	pair := func() (string, string) {
		a := rng.Intn(hosts)
		b := rng.Intn(hosts - 1)
		if b >= a {
			b++
		}
		return fmt.Sprintf("h%d", a), fmt.Sprintf("h%d", b)
	}
	var q PlanQuery
	for i := rng.Intn(3); i > 0; i-- {
		src, dst := pair()
		q.Background = append(q.Background, [2]string{src, dst})
	}
	for i := 1 + rng.Intn(12); i > 0; i-- {
		if len(q.Transfers) > 0 && rng.Intn(4) == 0 {
			q.Transfers = append(q.Transfers, q.Transfers[rng.Intn(len(q.Transfers))])
			continue
		}
		src, dst := pair()
		t := Transfer{Src: src, Dst: dst, Size: math.Exp(rng.Float64()*9) * 1e4}
		if rng.Intn(2) == 0 {
			t.Start = float64(rng.Intn(3)) * rng.Float64()
		}
		q.Transfers = append(q.Transfers, t)
	}
	return q
}

// requireSameDates compares completion dates bit for bit.
func requireSameDates(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: transfer %d completes at %v (bits %x), oracle %v (bits %x)",
				ctx, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestRunQueryMatchesCallbackOracle pins the runner to the callback
// oracle on seeded queries: every completion date bit-identical, the same
// solver work, on a pooled engine that answered another query first (the
// runner's own Reset), and through the Simulation and RunPlan adapters.
func TestRunQueryMatchesCallbackOracle(t *testing.T) {
	starts, dups := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hosts := 3 + rng.Intn(6)
		snap := buildRandomPlatform(t, rng, hosts).Snapshot()
		cfg := DefaultConfig()
		if rng.Intn(2) == 0 {
			cfg.TCPGamma = 0
		}
		warmup, q := randomQuery(rng, hosts), randomQuery(rng, hosts)
		seen := map[Transfer]bool{}
		for _, tr := range q.Transfers {
			if tr.Start > 0 {
				starts++
			}
			if seen[tr] {
				dups++
			}
			seen[tr] = true
		}
		ctx := fmt.Sprintf("seed %d", seed)

		oracle := NewEngineSnapshot(snap, cfg)
		want, err := callbackOracle(oracle, &q)
		if err != nil {
			t.Fatalf("%s: oracle: %v", ctx, err)
		}

		e := AcquireEngineSnapshot(snap, cfg)
		if err := e.RunQuery(&warmup, make([]float64, len(warmup.Transfers))); err != nil {
			t.Fatalf("%s: warm-up query: %v", ctx, err)
		}
		got := make([]float64, len(q.Transfers))
		if err := e.RunQuery(&q, got); err != nil {
			t.Fatalf("%s: RunQuery: %v", ctx, err)
		}
		requireSameDates(t, ctx, got, want)
		if gs, ws := e.SharingStats(), oracle.SharingStats(); gs != ws {
			t.Fatalf("%s: sharing stats %+v, oracle %+v", ctx, gs, ws)
		}
		ReleaseEngine(e)

		s := NewPooledSnapshotSimulation(snap, cfg)
		for _, bg := range q.Background {
			s.AddBackgroundFlow(bg[0], bg[1])
		}
		for _, tr := range q.Transfers {
			s.AddTransferAt(tr.Src, tr.Dst, tr.Size, tr.Start)
		}
		res, err := s.Run()
		s.Release()
		if err != nil {
			t.Fatalf("%s: Simulation.Run: %v", ctx, err)
		}
		plan := RunPlan(snap, cfg, []PlanQuery{warmup, q})
		if plan[1].Err != nil {
			t.Fatalf("%s: RunPlan: %v", ctx, plan[1].Err)
		}
		for _, adapter := range []struct {
			name    string
			results []TransferResult
		}{{"Simulation.Run", res}, {"RunPlan", plan[1].Results}} {
			dates := make([]float64, len(adapter.results))
			for i, r := range adapter.results {
				if r.Transfer != q.Transfers[i] || math.Float64bits(r.Duration) != math.Float64bits(r.Completion-r.Start) {
					t.Fatalf("%s: %s result %d = %+v for %+v", ctx, adapter.name, i, r, q.Transfers[i])
				}
				dates[i] = r.Completion
			}
			requireSameDates(t, ctx+" "+adapter.name, dates, want)
		}
	}
	if starts == 0 || dups == 0 {
		t.Fatalf("coverage hole: %d delayed starts, %d repeated transfers", starts, dups)
	}
}

// TestRunQueryErrorsMatchOracle: every way a query can fail reports the
// oracle's error text, and the engine answers the next query correctly.
func TestRunQueryErrorsMatchOracle(t *testing.T) {
	p := batchPlatform(t)
	base := p.Snapshot()
	li, ok := base.LinkIndex("b_nic")
	if !ok {
		t.Fatal("missing link")
	}
	hi, ok := base.HostIndex("c")
	if !ok {
		t.Fatal("missing host")
	}
	failed, err := base.ApplyOverlay(
		[]platform.OverlayLink{{Link: li, Bandwidth: 0, Latency: math.NaN()}},
		[]platform.OverlayHost{{Host: hi, Speed: 0}}, "fail b_nic and c")
	if err != nil {
		t.Fatal(err)
	}
	stalled := DefaultConfig()
	stalled.BandwidthFactor = 0 // every shared link saturates at rate 0
	ab := Transfer{Src: "a", Dst: "b", Size: 1e8}
	cases := []struct {
		name string
		snap *platform.Snapshot
		cfg  Config
		q    PlanQuery
		want string
	}{
		{"unknown host", base, DefaultConfig(), PlanQuery{Transfers: []Transfer{ab, {Src: "a", Dst: "zz", Size: 1e8}}}, "sim: transfer a->zz: "},
		{"down link", failed, DefaultConfig(), PlanQuery{Transfers: []Transfer{ab}}, `link "b_nic" on route a->b is down`},
		{"down host", failed, DefaultConfig(), PlanQuery{Transfers: []Transfer{{Src: "c", Dst: "a", Size: 1e8}}}, `host "c" is down`},
		{"background flow", base, DefaultConfig(), PlanQuery{Transfers: []Transfer{ab}, Background: [][2]string{{"a", "c"}, {"zz", "a"}}}, "sim: background flow zz->a: "},
		{"invalid size", base, DefaultConfig(), PlanQuery{Transfers: []Transfer{{Src: "a", Dst: "b", Size: 0}}}, "invalid transfer size"},
		{"zero-rate stall", base, stalled, PlanQuery{Transfers: []Transfer{ab}}, "stalled with zero rate"},
		{"never starts", base, DefaultConfig(), PlanQuery{Transfers: []Transfer{ab, {Src: "b", Dst: "c", Size: 1e8, Start: math.Inf(1)}}}, "sim: 1 of 2 transfers completed"},
	}
	next := PlanQuery{Transfers: []Transfer{{Src: "a", Dst: "c", Size: 3e8}, ab}}
	for _, c := range cases {
		if _, err := callbackOracle(NewEngineSnapshot(c.snap, c.cfg), &c.q); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: oracle error %v, want one containing %q", c.name, err, c.want)
		}
		// The failing query, then a healthy-shaped one, on one pooled engine.
		e := AcquireEngineSnapshot(c.snap, c.cfg)
		for _, q := range []*PlanQuery{&c.q, &next} {
			want, wantErr := callbackOracle(NewEngineSnapshot(c.snap, c.cfg), q)
			got := make([]float64, len(q.Transfers))
			err := e.RunQuery(q, got)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s: RunQuery error %v, oracle %v", c.name, err, wantErr)
			} else if err == nil {
				requireSameDates(t, c.name, got, want)
			}
		}
		ReleaseEngine(e)
	}
}
