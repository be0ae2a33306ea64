package pilgrim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"pilgrim/internal/bgtraffic"
	"pilgrim/internal/g5k"
	"pilgrim/internal/metrology"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/rrd"
	"pilgrim/internal/scenario"
	"pilgrim/internal/sim"
	"pilgrim/internal/workflow"
)

const (
	evalSrc = "sagittaire-1.lyon.grid5000.fr"
	evalDst = "graphene-1.nancy.grid5000.fr"
	evalAlt = "sagittaire-2.lyon.grid5000.fr"
)

// newEvaluator builds a registry with the Mini platform under "p" plus a
// fully wired Evaluator.
func newEvaluator(t testing.TB) *Evaluator {
	t.Helper()
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	return &Evaluator{
		Platforms: reg,
		Cache:     NewForecastCache(256),
		Pool:      NewWorkerPool(0),
		Overlays:  NewOverlayCache(64),
	}
}

func fptr(v float64) *float64 { return &v }

func TestEvaluateGrid(t *testing.T) {
	ev := newEvaluator(t)
	req := EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "baseline"},
			{Name: "degraded", Mutations: []scenario.Mutation{
				{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.5},
			}},
			{Name: "failed", Mutations: []scenario.Mutation{
				{Op: scenario.OpFailLink, Link: testNIC},
			}},
		},
		Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalSrc, Dst: evalDst, Size: 5e8}, // crosses testNIC
			}},
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalAlt, Dst: evalDst, Size: 5e8}, // avoids testNIC
			}},
			{Kind: QuerySelectFastest, Hypotheses: []Hypothesis{
				{Transfers: []TransferRequest{{Src: evalSrc, Dst: evalDst, Size: 5e8}}},
				{Transfers: []TransferRequest{{Src: evalAlt, Dst: evalDst, Size: 5e8}}},
			}},
		},
	}
	resp, err := ev.Evaluate("p", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Scenarios) != 3 {
		t.Fatalf("scenario rows = %d", len(resp.Scenarios))
	}
	for si, row := range resp.Scenarios {
		if row.Error != "" {
			t.Fatalf("scenario %d error: %s", si, row.Error)
		}
		if len(row.Results) != 3 {
			t.Fatalf("scenario %d results = %d", si, len(row.Results))
		}
	}
	base, deg, fail := resp.Scenarios[0], resp.Scenarios[1], resp.Scenarios[2]

	// The degraded scenario halves the NIC: the crossing transfer slows,
	// the avoiding transfer is untouched (bit-identical to baseline —
	// same epoch answers both? no: different epochs, same link state on
	// the route, so the simulation result is numerically identical).
	d0 := base.Results[0].Predictions[0].Duration
	d1 := deg.Results[0].Predictions[0].Duration
	if !(d1 > d0*1.5) {
		t.Errorf("degraded crossing transfer %v not slower than baseline %v", d1, d0)
	}
	if deg.Results[1].Predictions[0].Duration != base.Results[1].Predictions[0].Duration {
		t.Errorf("avoiding transfer diverged: %v vs %v",
			deg.Results[1].Predictions[0].Duration, base.Results[1].Predictions[0].Duration)
	}

	// The failure sweep: the crossing cell errors, the avoiding cell
	// answers, the batch survives.
	if fail.Results[0].Error == "" || !strings.Contains(fail.Results[0].Error, "down") {
		t.Errorf("failed-link cell error = %q", fail.Results[0].Error)
	}
	if fail.Results[1].Error != "" || len(fail.Results[1].Predictions) != 1 {
		t.Errorf("avoiding cell on failed scenario: %+v", fail.Results[1])
	}

	// select_fastest: baseline may pick either; the failed scenario must
	// reject hypothesis 0 (crosses the dead link) and fail the cell with
	// a precise message.
	if base.Results[2].Best == nil || len(base.Results[2].Hypotheses) != 2 {
		t.Errorf("baseline select_fastest: %+v", base.Results[2])
	}
	if fail.Results[2].Error == "" || !strings.Contains(fail.Results[2].Error, "hypothesis 0") {
		t.Errorf("failed select_fastest error = %q", fail.Results[2].Error)
	}

	// Epoch provenance: mutated scenarios answer from derived epochs that
	// record their mutation list; the baseline answers the live epoch.
	if deg.Epoch == base.Epoch || fail.Epoch == base.Epoch || deg.Epoch == fail.Epoch {
		t.Errorf("epochs not distinct: %d %d %d", base.Epoch, deg.Epoch, fail.Epoch)
	}
	if !strings.Contains(deg.Provenance, testNIC) {
		t.Errorf("degraded provenance = %q", deg.Provenance)
	}
	if !strings.Contains(fail.Provenance, "fail link "+testNIC) {
		t.Errorf("failed provenance = %q", fail.Provenance)
	}
}

// TestEvaluateDedup pins the acceptance criterion: evaluating K scenarios
// sharing a base epoch performs at most one simulation per distinct
// (epoch, config, query) triple, verified by cache and worker counters.
func TestEvaluateDedup(t *testing.T) {
	ev := newEvaluator(t)
	req := EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "baseline"}, // base epoch
			{Name: "scale", Mutations: []scenario.Mutation{
				{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.5},
			}},
			{Name: "scale-twin", Mutations: []scenario.Mutation{ // identical overlay
				{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.5},
			}},
			{Name: "set-equivalent", Mutations: []scenario.Mutation{ // same value, different phrasing
				{Op: scenario.OpSetLink, Link: testNIC, Bandwidth: fptr(ev.mustBaseBW(t) * 0.5)},
			}},
		},
		Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalSrc, Dst: evalDst, Size: 5e8}}},
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalAlt, Dst: evalDst, Size: 7e8}}},
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{ // duplicate of query 0
				{Src: evalSrc, Dst: evalDst, Size: 5e8}}},
		},
	}
	resp, err := ev.Evaluate("p", req)
	if err != nil {
		t.Fatal(err)
	}
	// 4 scenarios collapse to 2 epochs; 3 queries contain 2 distinct
	// workloads: 2×2 = 4 distinct triples for 12 cells. Differential
	// evaluation squeezes further: both base-epoch subs simulate once, the
	// derived epoch answers the NIC-avoiding sub by provable reuse of the
	// base answer and runs only the NIC-crossing sub — 3 simulations total.
	if resp.Stats.Cells != 12 || resp.Stats.Groups != 2 || resp.Stats.BaseGroups != 1 {
		t.Fatalf("stats = %+v", resp.Stats)
	}
	if resp.Stats.Simulations != 3 {
		t.Errorf("simulations = %d, want 3 (2 base + 1 bandwidth-only)", resp.Stats.Simulations)
	}
	if resp.Stats.ForkReused != 1 || resp.Stats.ForkRuns != 1 || resp.Stats.ForkCold != 0 {
		t.Errorf("fork stats = %+v", resp.Stats)
	}
	if resp.Stats.OverlaysReused != 2 {
		t.Errorf("overlays reused = %d, want 2 (twin + equivalent)", resp.Stats.OverlaysReused)
	}
	// The three same-overlay scenarios answer from one derived epoch.
	if resp.Scenarios[1].Epoch != resp.Scenarios[2].Epoch ||
		resp.Scenarios[1].Epoch != resp.Scenarios[3].Epoch {
		t.Errorf("equivalent scenarios on distinct epochs: %d %d %d",
			resp.Scenarios[1].Epoch, resp.Scenarios[2].Epoch, resp.Scenarios[3].Epoch)
	}
	// Worker counters agree.
	ws := ev.Pool.Stats()
	if ws.EvaluateSims != 3 || ws.EvaluateCells != 12 || ws.EvaluateGroupRuns != 2 || ws.EvaluateCalls != 1 {
		t.Errorf("worker stats = %+v", ws)
	}
	if ws.EvaluateForkReused != 1 || ws.EvaluateForkRuns != 1 || ws.EvaluateForkCold != 0 {
		t.Errorf("worker fork stats = %+v", ws)
	}
	// Cache counters: one miss per distinct key led — 2 epochs × 2 workloads
	// (the repeated query deduplicates before the cache). The baseline member
	// leads the two base keys, so the base phase runs under those flights and
	// does not count a second miss for the same simulation.
	cs := ev.Cache.Stats()
	if cs.Misses != 4 || cs.Size != 4 || cs.Hits != 0 {
		t.Errorf("cache stats after first batch = %+v, want one miss per distinct key (4)", cs)
	}

	// Re-evaluating the same batch touches the simulator zero times: the
	// overlay cache resolves the same epochs, so every triple hits.
	resp2, err := ev.Evaluate("p", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Stats.Simulations != 0 {
		t.Errorf("repeat simulations = %d, want 0", resp2.Stats.Simulations)
	}
	if resp2.Stats.CacheHits != 6 {
		t.Errorf("repeat cache hits = %d, want 6", resp2.Stats.CacheHits)
	}
	// Identical answers, bit for bit.
	for si := range resp.Scenarios {
		for qi := range resp.Scenarios[si].Results {
			a := resp.Scenarios[si].Results[qi].Predictions
			b := resp2.Scenarios[si].Results[qi].Predictions
			for i := range a {
				if math.Float64bits(a[i].Duration) != math.Float64bits(b[i].Duration) {
					t.Fatalf("scenario %d query %d diverged across requests", si, qi)
				}
			}
		}
	}
	// The duplicate query and the shared epochs mean all 12 cells carry
	// answers computed from 4 simulations; spot-check equality.
	r := resp.Scenarios
	if r[0].Results[0].Predictions[0].Duration != r[0].Results[2].Predictions[0].Duration {
		t.Error("duplicate queries diverged")
	}
	if r[1].Results[0].Predictions[0].Duration != r[3].Results[0].Predictions[0].Duration {
		t.Error("equivalent scenarios diverged")
	}
}

// TestEvaluateSinglePicture pins the accounting of single-picture requests
// (no scenario, or one derived scenario: a campaign step, a RemoteBackend
// call) — the shape that ran on its own cold runner until the runners
// merged. The expected values were recorded at the last commit with two
// runners.
func TestEvaluateSinglePicture(t *testing.T) {
	one := []TransferRequest{{Src: evalSrc, Dst: evalDst, Size: 5e8}}
	alt := []TransferRequest{{Src: evalAlt, Dst: evalDst, Size: 5e8}}
	queries := map[string]EvalQuery{
		"predict": {Kind: QueryPredictTransfers, Transfers: one},
		// The third hypothesis repeats the first: one sub, two instances.
		"select": {Kind: QuerySelectFastest, Hypotheses: []Hypothesis{{Transfers: one}, {Transfers: alt}, {Transfers: one}}},
		"workflow": {Kind: QueryPredictWorkflow, Workflow: &workflow.Workflow{Name: "w", Tasks: []workflow.Task{
			{ID: "move", Kind: workflow.TransferData, Src: evalSrc, Dst: evalDst, Bytes: 5e8}}}},
	}
	scenarios := map[string][]scenario.Scenario{
		"none": nil,
		// Bandwidth on evalSrc's route: `one` is bandwidth-only and runs on
		// the derived epoch, `alt` (off the NIC) reuses the base answer.
		"derived": {{Name: "d", Mutations: []scenario.Mutation{
			{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.5}}}},
		// A no-op overlay: its own epoch, no delta against the base.
		"noop": {{Name: "n", Mutations: []scenario.Mutation{
			{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 1}}}},
	}
	for _, tc := range []struct {
		scenario, query, cache         string
		sims, cacheHits, baseGroups    int
		hits, misses                   uint64
		size                           int
		forkReused, forkRuns, forkCold int
	}{
		{"none", "predict", "cold", 1, 0, 1, 0, 1, 1, 0, 0, 0},
		{"none", "predict", "warm", 0, 1, 1, 1, 1, 1, 0, 0, 0},
		{"none", "predict", "off", 1, 0, 1, 0, 1, 0, 0, 0, 0},
		{"none", "select", "cold", 2, 1, 1, 0, 2, 2, 0, 0, 0},
		// 3 LRU hits: a lone picture probes again for the repeated hypothesis,
		// where a supergroup (derived/select/warm) probes once per distinct key.
		{"none", "select", "warm", 0, 3, 1, 3, 2, 2, 0, 0, 0},
		{"none", "select", "off", 2, 1, 1, 0, 2, 0, 0, 0, 0},
		{"none", "workflow", "cold", 1, 0, 1, 0, 0, 0, 0, 0, 0},
		{"none", "workflow", "warm", 1, 0, 1, 0, 0, 0, 0, 0, 0},
		{"none", "workflow", "off", 1, 0, 1, 0, 0, 0, 0, 0, 0},
		// A bandwidth-only cell needs no base answer: `one` runs on the
		// derived epoch alone, and no base answer is simulated or cached for it.
		{"derived", "predict", "cold", 1, 0, 1, 0, 1, 1, 0, 1, 0},
		{"derived", "predict", "warm", 0, 1, 1, 1, 1, 1, 0, 0, 0},
		{"derived", "predict", "off", 1, 0, 1, 0, 1, 0, 0, 1, 0},
		{"derived", "select", "cold", 2, 1, 1, 0, 3, 3, 1, 1, 0},
		{"derived", "select", "warm", 0, 3, 1, 2, 3, 3, 0, 0, 0},
		{"derived", "select", "off", 2, 1, 1, 0, 3, 0, 1, 1, 0},
		{"derived", "workflow", "cold", 1, 0, 1, 0, 0, 0, 0, 0, 0},
		{"derived", "workflow", "warm", 1, 0, 1, 0, 0, 0, 0, 0, 0},
		{"derived", "workflow", "off", 1, 0, 1, 0, 0, 0, 0, 0, 0},
		{"noop", "predict", "cold", 1, 0, 1, 0, 1, 1, 0, 0, 0},
		{"noop", "select", "warm", 0, 3, 1, 3, 2, 2, 0, 0, 0},
		{"noop", "select", "off", 2, 1, 1, 0, 2, 0, 0, 0, 0},
	} {
		ev := newEvaluator(t)
		runs := 1
		switch tc.cache {
		case "warm": // the same request twice; the second one is recorded
			runs = 2
		case "off":
			ev.Cache = NewForecastCache(0)
		}
		var resp *EvaluateResponse
		for i := 0; i < runs; i++ {
			var err error
			resp, err = ev.Evaluate("p", EvaluateRequest{Scenarios: scenarios[tc.scenario], Queries: []EvalQuery{queries[tc.query]}})
			if err != nil {
				t.Fatal(err)
			}
		}
		st, cs := resp.Stats, ev.Cache.Stats()
		if st.Simulations != tc.sims || st.CacheHits != tc.cacheHits || st.BaseGroups != tc.baseGroups ||
			st.ForkReused != tc.forkReused || st.ForkRuns != tc.forkRuns || st.ForkCold != tc.forkCold {
			t.Errorf("%s/%s/%s: stats = %+v, want %+v", tc.scenario, tc.query, tc.cache, st, tc)
		}
		if cs.Hits != tc.hits || cs.Misses != tc.misses || cs.Size != tc.size {
			t.Errorf("%s/%s/%s: cache = %+v, want %+v", tc.scenario, tc.query, tc.cache, cs, tc)
		}
		if n := len(ev.Cache.flights); n != 0 {
			t.Errorf("%s/%s/%s: %d flights left in the table", tc.scenario, tc.query, tc.cache, n)
		}
	}
}

// TestEvaluateNoopOverlay pins a supergroup holding a no-op overlay
// (scale_link factor 1): the overlay derives its own epoch with an empty
// delta, so it reuses the base answer but is not the base-epoch member — the
// base phase must not run under its flight. One miss per distinct key, and
// no flight outlives the request (a leaked one would swallow every later
// request for its key).
func TestEvaluateNoopOverlay(t *testing.T) {
	baseline := scenario.Scenario{Name: "baseline"}
	noop := scenario.Scenario{Name: "noop", Mutations: []scenario.Mutation{
		{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 1}}}
	scale := scenario.Scenario{Name: "scale", Mutations: []scenario.Mutation{
		{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.5}}}
	query := EvalQuery{Kind: QueryPredictTransfers, Transfers: []TransferRequest{{Src: evalSrc, Dst: evalDst, Size: 5e8}}}
	for _, tc := range []struct {
		name      string
		scenarios []scenario.Scenario
		off       bool
		misses    uint64 // distinct keys led: the members' plus, absent a baseline, the base key
	}{
		{"noop+scale", []scenario.Scenario{noop, scale}, false, 3},
		{"noop+scale/off", []scenario.Scenario{noop, scale}, true, 3},
		{"baseline+noop+scale", []scenario.Scenario{baseline, noop, scale}, false, 3},
		{"baseline+noop+scale/off", []scenario.Scenario{baseline, noop, scale}, true, 3},
		{"noop+baseline+scale", []scenario.Scenario{noop, baseline, scale}, false, 3},
	} {
		ev := newEvaluator(t)
		if tc.off {
			ev.Cache = NewForecastCache(0)
		}
		resp, err := ev.Evaluate("p", EvaluateRequest{Scenarios: tc.scenarios, Queries: []EvalQuery{query}})
		if err != nil {
			t.Fatal(err)
		}
		// One base run, one run on the scaled NIC's epoch; the no-op member and
		// the baseline take the base answer without counting as differential
		// wins.
		st := resp.Stats
		if st.Simulations != 2 || st.ForkRuns != 1 || st.ForkReused != 0 || st.ForkCold != 0 || st.BaseGroups != 1 {
			t.Errorf("%s: stats = %+v", tc.name, st)
		}
		if cs := ev.Cache.Stats(); cs.Misses != tc.misses || cs.Hits != 0 || (!tc.off && cs.Size != 3) {
			t.Errorf("%s: cache = %+v, want %d misses", tc.name, cs, tc.misses)
		}
		if n := len(ev.Cache.flights); n != 0 {
			t.Errorf("%s: %d flights left in the table", tc.name, n)
		}
		rows := resp.Scenarios
		for si := range rows[:len(rows)-1] { // every row but the scaled one is the base answer
			if a, b := rows[si].Results[0].Predictions[0].Duration, rows[0].Results[0].Predictions[0].Duration; math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: scenario %d = %v, want the base answer %v", tc.name, si, a, b)
			}
		}
	}
}

// TestEvaluateBandwidthOnlyRunsNoBase pins that a bandwidth-only cell needs
// no base answer: a request whose one scenario scales a link on the query's
// route simulates on the derived epoch alone, so the base epoch's answer is
// neither computed nor cached and a later baseline request still simulates.
func TestEvaluateBandwidthOnlyRunsNoBase(t *testing.T) {
	ev := newEvaluator(t)
	query := EvalQuery{Kind: QueryPredictTransfers, Transfers: []TransferRequest{{Src: evalSrc, Dst: evalDst, Size: 5e8}}}
	scale := scenario.Scenario{Name: "scale", Mutations: []scenario.Mutation{
		{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.5}}}
	if _, err := ev.Evaluate("p", EvaluateRequest{Scenarios: []scenario.Scenario{scale}, Queries: []EvalQuery{query}}); err != nil {
		t.Fatal(err)
	}
	resp, err := ev.Evaluate("p", EvaluateRequest{Queries: []EvalQuery{query}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Simulations != 1 || resp.Stats.CacheHits != 0 {
		t.Errorf("baseline after a bandwidth-only request: %+v, want 1 simulation and no cache hit", resp.Stats)
	}
}

// TestEvaluateFreshEpochsBuildNoEngine pins the engine pool's key: a
// what-if request whose factors nobody has asked for derives brand-new
// epochs, and every cell run on them must be served by engines the
// previous request parked — the pool is keyed by topology, so "an epoch
// nobody has simulated" is not a miss.
func TestEvaluateFreshEpochsBuildNoEngine(t *testing.T) {
	ev := newEvaluator(t)
	ev.Pool = NewWorkerPool(1) // one group at a time: engine demand is the same for both requests
	request := func(factor float64) EvaluateRequest {
		return EvaluateRequest{
			Scenarios: []scenario.Scenario{
				{Name: "baseline"},
				{Name: "fork", Mutations: []scenario.Mutation{ // bandwidth on the route: counted as fork
					{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: factor}}},
				{Name: "cold", Mutations: []scenario.Mutation{ // latency on the route: cold run
					{Op: scenario.OpSetLink, Link: testNIC, Latency: fptr(factor * 1e-3)}}},
			},
			Queries: []EvalQuery{{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalSrc, Dst: evalDst, Size: 5e8 * factor}}}},
		}
	}
	first, err := ev.Evaluate("p", request(0.5))
	if err != nil {
		t.Fatal(err)
	}
	before := sim.PoolStats()
	second, err := ev.Evaluate("p", request(0.7))
	if err != nil {
		t.Fatal(err)
	}
	after := sim.PoolStats()
	for _, resp := range []*EvaluateResponse{first, second} {
		if resp.Stats.ForkRuns != 1 || resp.Stats.ForkCold != 1 || resp.Stats.Simulations != 3 {
			t.Fatalf("tier mix off (want 1 fork, 1 cold, 3 simulations): %+v", resp.Stats)
		}
	}
	if first.Scenarios[1].Epoch == second.Scenarios[1].Epoch || first.Scenarios[2].Epoch == second.Scenarios[2].Epoch {
		t.Fatal("second request reused the first one's derived epochs")
	}
	if after.Acquired-before.Acquired < 3 {
		t.Errorf("second request acquired %d engines, want >= 3", after.Acquired-before.Acquired)
	}
	if built := after.Built - before.Built; built != 0 {
		t.Errorf("second request built %d engines on its fresh epochs, want 0", built)
	}
}

// mustBaseBW reads the test NIC's base bandwidth.
func (ev *Evaluator) mustBaseBW(t *testing.T) float64 {
	t.Helper()
	entry, ok := ev.Platforms.Get("p")
	if !ok {
		t.Fatal("platform missing")
	}
	li, ok := entry.Snapshot.LinkIndex(testNIC)
	if !ok {
		t.Fatal("link missing")
	}
	return entry.Snapshot.LinkBandwidth(li)
}

// TestEvaluateAgainstDirectEndpoints: grid cells must agree bit-for-bit
// with the single-question endpoints' in-process equivalents.
func TestEvaluateAgainstDirectEndpoints(t *testing.T) {
	ev := newEvaluator(t)
	entry, _ := ev.Platforms.Get("p")
	transfers := []TransferRequest{
		{Src: evalSrc, Dst: evalDst, Size: 5e8},
		{Src: evalAlt, Dst: evalDst, Size: 3e8},
	}
	hyps := []Hypothesis{
		{Transfers: []TransferRequest{{Src: evalSrc, Dst: evalDst, Size: 5e8}}},
		{Transfers: []TransferRequest{{Src: evalAlt, Dst: evalDst, Size: 5e8}}},
	}
	wf := &workflow.Workflow{Name: "w", Tasks: []workflow.Task{
		{ID: "move", Kind: workflow.TransferData, Src: evalSrc, Dst: evalDst, Bytes: 5e8},
		{ID: "crunch", Kind: workflow.Compute, Host: evalDst, Flops: 4e9, DependsOn: []string{"move"}},
	}}

	resp, err := ev.Evaluate("p", EvaluateRequest{
		Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: transfers},
			{Kind: QuerySelectFastest, Hypotheses: hyps},
			{Kind: QueryPredictWorkflow, Workflow: wf},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := resp.Scenarios[0]
	if row.Error != "" {
		t.Fatal(row.Error)
	}

	direct, err := PredictTransfers(entry, transfers, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Float64bits(direct[i].Duration) != math.Float64bits(row.Results[0].Predictions[i].Duration) {
			t.Errorf("transfer %d: evaluate %v != direct %v", i,
				row.Results[0].Predictions[i].Duration, direct[i].Duration)
		}
	}

	best, results, err := SelectFastest(entry, hyps)
	if err != nil {
		t.Fatal(err)
	}
	if *row.Results[1].Best != best {
		t.Errorf("best = %d, direct %d", *row.Results[1].Best, best)
	}
	for i := range results {
		if math.Float64bits(results[i].Makespan) != math.Float64bits(row.Results[1].Hypotheses[i].Makespan) {
			t.Errorf("hypothesis %d makespan diverged", i)
		}
	}

	wfDirect, err := workflow.Predict(entry.snapshot(), entry.Config, wf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(wfDirect.Makespan) != math.Float64bits(row.Results[2].Forecast.Makespan) {
		t.Errorf("workflow makespan %v != direct %v", row.Results[2].Forecast.Makespan, wfDirect.Makespan)
	}
}

func TestEvaluateScenarioErrorsAndLimits(t *testing.T) {
	ev := newEvaluator(t)
	ev.MaxScenarios = 2
	ev.MaxCells = 4
	q := []EvalQuery{{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
		{Src: evalSrc, Dst: evalDst, Size: 5e8}}}}

	// Unknown platform / empty queries / limit violations fail the call.
	if _, err := ev.Evaluate("ghost", EvaluateRequest{Queries: q}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := ev.Evaluate("p", EvaluateRequest{}); err == nil {
		t.Error("empty queries accepted")
	}
	if _, err := ev.Evaluate("p", EvaluateRequest{
		Scenarios: make([]scenario.Scenario, 3), Queries: q}); err == nil {
		t.Error("scenario limit not enforced")
	}
	ev.MaxScenarios = 64
	if _, err := ev.Evaluate("p", EvaluateRequest{
		Scenarios: make([]scenario.Scenario, 5), Queries: q}); err == nil {
		t.Error("cell limit not enforced")
	}
	if _, err := ev.Evaluate("p", EvaluateRequest{Queries: []EvalQuery{{Kind: "teleport"}}}); err == nil {
		t.Error("unknown query kind accepted")
	}

	// A scenario naming unknown resources fails its row, not the batch.
	ev.MaxCells = 0
	resp, err := ev.Evaluate("p", EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "bad", Mutations: []scenario.Mutation{{Op: scenario.OpFailLink, Link: "ghost"}}},
			{Name: "good"},
		},
		Queries: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scenarios[0].Error == "" || resp.Scenarios[0].Results != nil {
		t.Errorf("bad scenario row = %+v", resp.Scenarios[0])
	}
	if resp.Scenarios[1].Error != "" || len(resp.Scenarios[1].Results) != 1 {
		t.Errorf("good scenario row = %+v", resp.Scenarios[1])
	}

	// at_time beyond the horizon fails the scenario with the precise
	// horizon error.
	resp, err = ev.Evaluate("p", EvaluateRequest{
		Scenarios: []scenario.Scenario{{Name: "far", Mutations: []scenario.Mutation{
			{Op: scenario.OpAtTime, Time: 1 << 40},
		}}},
		Queries: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No observations yet: any time answers the base epoch. Feed one
	// observation, then a far future must fail.
	if resp.Scenarios[0].Error != "" {
		t.Errorf("pre-observation at_time failed: %s", resp.Scenarios[0].Error)
	}
	if _, err := ev.Platforms.ObserveLinkState("p", 1000, "test", []platform.LinkUpdate{
		{Link: testNIC, Bandwidth: 9e7, Latency: -1}}); err != nil {
		t.Fatal(err)
	}
	resp, err = ev.Evaluate("p", EvaluateRequest{
		Scenarios: []scenario.Scenario{{Name: "far", Mutations: []scenario.Mutation{
			{Op: scenario.OpAtTime, Time: 1 << 40},
		}}},
		Queries: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Scenarios[0].Error, "horizon") {
		t.Errorf("beyond-horizon scenario error = %q", resp.Scenarios[0].Error)
	}
}

// TestEvaluateBgScenarios: injected background traffic slows the
// contending transfer; the registered estimate feeds bg_estimate.
func TestEvaluateBgScenarios(t *testing.T) {
	ev := newEvaluator(t)
	q := []EvalQuery{{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
		{Src: evalSrc, Dst: evalDst, Size: 5e8}}}}
	resp, err := ev.Evaluate("p", EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "quiet"},
			{Name: "busy", Mutations: []scenario.Mutation{
				{Op: scenario.OpBgTraffic, Src: evalSrc, Dst: evalDst, Flows: 2},
			}},
			{Name: "estimated", Mutations: []scenario.Mutation{{Op: scenario.OpBgEstimate}}},
		},
		Queries: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet := resp.Scenarios[0].Results[0].Predictions[0].Duration
	busy := resp.Scenarios[1].Results[0].Predictions[0].Duration
	if !(busy > quiet*1.5) {
		t.Errorf("busy %v not slower than quiet %v", busy, quiet)
	}
	if resp.Scenarios[1].BackgroundFlows != 2 {
		t.Errorf("background flows = %d", resp.Scenarios[1].BackgroundFlows)
	}
	// No estimate registered: the bg_estimate scenario fails its row.
	if resp.Scenarios[2].Error == "" {
		t.Error("bg_estimate without estimate accepted")
	}
	// Both traffic scenarios answer the base epoch (no overlay).
	if resp.Scenarios[1].Epoch != resp.Scenarios[0].Epoch {
		t.Errorf("traffic-only scenario derived an epoch: %d vs %d",
			resp.Scenarios[1].Epoch, resp.Scenarios[0].Epoch)
	}

	// Register an estimate; bg_estimate now behaves like the explicit
	// flows and answers bit-identically.
	if err := ev.Platforms.SetBackgroundEstimate("p", "test-source",
		[][2]string{{evalSrc, evalDst}, {evalSrc, evalDst}}); err != nil {
		t.Fatal(err)
	}
	resp2, err := ev.Evaluate("p", EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "estimated", Mutations: []scenario.Mutation{{Op: scenario.OpBgEstimate}}},
		},
		Queries: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := resp2.Scenarios[0].Results[0].Predictions[0].Duration
	if math.Float64bits(est) != math.Float64bits(busy) {
		t.Errorf("estimated %v != explicit busy %v", est, busy)
	}
}

// TestEstimateBackgroundFromMetrology wires RRD traffic counters into the
// registry's background estimate.
func TestEstimateBackgroundFromMetrology(t *testing.T) {
	ev := newEvaluator(t)
	metrics := metrology.NewRegistry()
	reg := func(host, metric string, rate float64) {
		p := metrology.MetricPath{Tool: "ganglia", Site: "lyon", Host: host, Metric: metric}
		if err := metrics.Register(p, rrd.Counter, 15, func(ts int64) float64 { return float64(ts) * rate }); err != nil {
			t.Fatal(err)
		}
	}
	reg(evalSrc, "bytes_out", 60e6)
	reg(evalDst, "bytes_in", 60e6)
	if err := metrics.Collect(0, 3600); err != nil {
		t.Fatal(err)
	}
	n, err := ev.Platforms.EstimateBackgroundFromMetrology("p", metrics, "ganglia", 600, 3000,
		bgtraffic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no flows synthesized")
	}
	flows, source, ok := ev.Platforms.BackgroundEstimate("p")
	if !ok || len(flows) != n {
		t.Fatalf("estimate not registered: %v %v", flows, ok)
	}
	if !strings.Contains(source, "bgtraffic:ganglia[600,3000)") {
		t.Errorf("provenance = %q", source)
	}
	for _, f := range flows {
		if f[0] != evalSrc || f[1] != evalDst {
			t.Errorf("unexpected flow %v", f)
		}
	}
	if _, err := ev.Platforms.EstimateBackgroundFromMetrology("ghost", metrics, "ganglia", 0, 1,
		bgtraffic.DefaultConfig()); err == nil {
		t.Error("unknown platform accepted")
	}
}

// TestEvaluateHTTP drives the endpoint end to end through the typed
// client, including the curl-documented failure sweep shape.
func TestEvaluateHTTP(t *testing.T) {
	_, client := newTestServer(t)
	resp, err := client.Evaluate("g5k_test", EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "baseline"},
			{Name: "nic-fail", Mutations: []scenario.Mutation{
				{Op: scenario.OpFailLink, Link: testNIC},
			}},
		},
		Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalSrc, Dst: evalDst, Size: 5e8}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Scenarios) != 2 || resp.Platform != "g5k_test" {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Scenarios[0].Results[0].Error != "" {
		t.Errorf("baseline cell error: %s", resp.Scenarios[0].Results[0].Error)
	}
	if !strings.Contains(resp.Scenarios[1].Results[0].Error, "down") {
		t.Errorf("failed cell error = %q", resp.Scenarios[1].Results[0].Error)
	}

	// Malformed bodies and unknown platforms answer 4xx.
	if _, err := client.Evaluate("ghost", EvaluateRequest{
		Queries: []EvalQuery{{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
			{Src: evalSrc, Dst: evalDst, Size: 1}}}}}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("unknown platform: %v", err)
	}
	if _, err := client.Evaluate("g5k_test", EvaluateRequest{}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Errorf("empty request: %v", err)
	}
}

// TestEvaluateWorkflowAt pins the predict_workflow satellite: at=T obeys
// the same horizon semantics as predict_transfers, and an omitted at
// answers byte-identically to the direct endpoint.
func TestEvaluateWorkflowAt(t *testing.T) {
	srv, client := newTestServer(t)
	wf := &workflow.Workflow{Name: "w", Tasks: []workflow.Task{
		{ID: "move", Kind: workflow.TransferData, Src: evalSrc, Dst: evalDst, Bytes: 5e8},
	}}
	if _, err := wf.Validate(); err != nil { // fills the JSON kind names
		t.Fatal(err)
	}
	body, err := json.Marshal(wf)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Byte-identical answers with and without at (no observations yet:
	// every at resolves to the base epoch).
	r1 := post("/pilgrim/predict_workflow/g5k_test")
	b1, _ := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("predict_workflow: %d %s", r1.StatusCode, b1)
	}
	r2 := post("/pilgrim/predict_workflow/g5k_test?at=12345")
	b2, _ := readAll(t, r2)
	if r2.StatusCode != http.StatusOK || !bytes.Equal(b1, b2) {
		t.Errorf("at=T (pre-observation) diverged: %d\n%s\n%s", r2.StatusCode, b1, b2)
	}

	// After an observation, a beyond-horizon at answers 400.
	if _, err := client.UpdateLinks("g5k_test", UpdateLinksRequest{
		Time:    1000,
		Updates: []LinkObservation{{Link: testNIC, Bandwidth: fptr(9e7)}},
	}); err != nil {
		t.Fatal(err)
	}
	r3 := post(fmt.Sprintf("/pilgrim/predict_workflow/g5k_test?at=%d", int64(1)<<40))
	b3, _ := readAll(t, r3)
	if r3.StatusCode != http.StatusBadRequest || !strings.Contains(string(b3), "horizon") {
		t.Errorf("beyond-horizon workflow: %d %s", r3.StatusCode, b3)
	}

	// A past at answers against the timeline epoch — and still succeeds.
	r4 := post("/pilgrim/predict_workflow/g5k_test?at=500")
	b4, _ := readAll(t, r4)
	if r4.StatusCode != http.StatusOK {
		t.Errorf("past-at workflow: %d %s", r4.StatusCode, b4)
	}
}

func readAll(t *testing.T, resp *http.Response) ([]byte, error) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestEvaluateConcurrentWithIngest is the race test of the satellite
// list: evaluate batches run against ongoing metrology ingest without
// torn state (run under -race in CI).
func TestEvaluateConcurrentWithIngest(t *testing.T) {
	ev := newEvaluator(t)
	req := EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "deg", Mutations: []scenario.Mutation{
				{Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.7},
			}},
			{Name: "fail", Mutations: []scenario.Mutation{
				{Op: scenario.OpFailLink, Link: testNIC},
			}},
		},
		Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalSrc, Dst: evalDst, Size: 5e8}}},
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{
				{Src: evalAlt, Dst: evalDst, Size: 3e8}}},
		},
	}
	stop := make(chan struct{})
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() { // ingest stream
		defer ingest.Done()
		ts := int64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := ev.Platforms.ObserveLinkState("p", ts, "ingest", []platform.LinkUpdate{
				{Link: testNIC, Bandwidth: 8e7 + float64(ts%7)*1e6, Latency: -1}})
			if err != nil {
				t.Error(err)
				return
			}
			ts++
		}
	}()
	var evals sync.WaitGroup
	for w := 0; w < 4; w++ {
		evals.Add(1)
		go func() {
			defer evals.Done()
			for i := 0; i < 25; i++ {
				resp, err := ev.Evaluate("p", req)
				if err != nil {
					t.Error(err)
					return
				}
				for si, row := range resp.Scenarios {
					if row.Error != "" {
						t.Errorf("scenario %d: %s", si, row.Error)
						return
					}
				}
			}
		}()
	}
	evals.Wait()
	close(stop)
	ingest.Wait()
}

// TestEvaluateWorkflowQueryBackground: the per-query bg field applies to
// predict_workflow cells exactly as PredictWithBackground would.
func TestEvaluateWorkflowQueryBackground(t *testing.T) {
	ev := newEvaluator(t)
	entry, _ := ev.Platforms.Get("p")
	wf := &workflow.Workflow{Name: "w", Tasks: []workflow.Task{
		{ID: "move", Kind: workflow.TransferData, Src: evalSrc, Dst: evalDst, Bytes: 5e8},
	}}
	bg := [][2]string{{evalSrc, evalDst}}
	resp, err := ev.Evaluate("p", EvaluateRequest{
		Queries: []EvalQuery{
			{Kind: QueryPredictWorkflow, Workflow: wf},
			{Kind: QueryPredictWorkflow, Workflow: wf, Background: bg},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	row := resp.Scenarios[0]
	quiet, err := workflow.Predict(entry.snapshot(), entry.Config, wf)
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := workflow.PredictWithBackground(entry.snapshot(), entry.Config, wf, bg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(row.Results[0].Forecast.Makespan) != math.Float64bits(quiet.Makespan) {
		t.Errorf("quiet cell %v != direct %v", row.Results[0].Forecast.Makespan, quiet.Makespan)
	}
	if math.Float64bits(row.Results[1].Forecast.Makespan) != math.Float64bits(crowded.Makespan) {
		t.Errorf("bg cell %v != direct %v", row.Results[1].Forecast.Makespan, crowded.Makespan)
	}
	if row.Results[1].Forecast.Makespan <= row.Results[0].Forecast.Makespan {
		t.Errorf("per-query bg ignored: %v vs %v",
			row.Results[1].Forecast.Makespan, row.Results[0].Forecast.Makespan)
	}
}
