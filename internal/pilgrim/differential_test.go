package pilgrim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pilgrim/internal/scenario"
)

// TestEvaluateDifferentialMatchesCold is the evaluate-level bit-identity
// property test of the warm-start tentpole: for random scenario batches —
// bandwidth scales, latency sets, link and host failures, background
// traffic, baselines — over random transfer and hypothesis workloads, a
// differential evaluator (base-run reuse, the default)
// must produce responses that marshal byte-identically to a cold
// evaluator's (DisableDifferential, separate caches). Float64 JSON
// round-trips exactly, so byte equality is bit equality of every
// prediction. Both of those arms run through the one evaluate runner, so a
// third arm — directRows: every cell answered on its own by PredictTransfers
// on the applied overlay, no dedup table, no instance map, no fold — must
// produce the same bytes too.
func TestEvaluateDifferentialMatchesCold(t *testing.T) {
	base := newEvaluator(t)
	entry, ok := base.Platforms.Get("p")
	if !ok {
		t.Fatal("platform p missing")
	}
	var hosts []string
	for _, h := range entry.Platform.Hosts() {
		hosts = append(hosts, h.ID)
	}
	var links []string
	for _, l := range entry.Platform.Links() {
		links = append(links, l.ID)
	}
	if len(hosts) < 3 || len(links) == 0 {
		t.Fatalf("platform too small: %d hosts, %d links", len(hosts), len(links))
	}

	var totals EvaluateStats
	for seed := int64(1); seed <= 42; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pair := func() (string, string) {
			a := rng.Intn(len(hosts))
			b := rng.Intn(len(hosts) - 1)
			if b >= a {
				b++
			}
			return hosts[a], hosts[b]
		}
		transfers := func() []TransferRequest {
			out := make([]TransferRequest, 1+rng.Intn(4))
			for i := range out {
				src, dst := pair()
				out[i] = TransferRequest{Src: src, Dst: dst, Size: 1e6 + float64(rng.Float64()*1e9)}
			}
			return out
		}
		var req EvaluateRequest
		for si := 0; si < 1+rng.Intn(5); si++ {
			sc := scenario.Scenario{Name: "s"}
			for mi := 0; mi < rng.Intn(4); mi++ {
				link := links[rng.Intn(len(links))]
				switch rng.Intn(5) {
				case 0:
					sc.Mutations = append(sc.Mutations, scenario.Mutation{
						Op: scenario.OpScaleLink, Link: link, BandwidthFactor: 0.2 + float64(rng.Float64())})
				case 1:
					sc.Mutations = append(sc.Mutations, scenario.Mutation{
						Op: scenario.OpSetLink, Link: link, Latency: fptr(rng.Float64() * 1e-2)})
				case 2:
					sc.Mutations = append(sc.Mutations, scenario.Mutation{
						Op: scenario.OpFailLink, Link: link})
				case 3:
					sc.Mutations = append(sc.Mutations, scenario.Mutation{
						Op: scenario.OpFailHost, Host: hosts[rng.Intn(len(hosts))]})
				case 4:
					src, dst := pair()
					sc.Mutations = append(sc.Mutations, scenario.Mutation{
						Op: scenario.OpBgTraffic, Src: src, Dst: dst, Flows: 1 + rng.Intn(2)})
				}
			}
			req.Scenarios = append(req.Scenarios, sc)
		}
		if seed%3 == 0 {
			// A no-op overlay: its own epoch, an empty delta against the base.
			// Picked off the seed, not the rng, so the draws above and below
			// stay the ones the tier-coverage guard was tuned on.
			req.Scenarios = append(req.Scenarios, scenario.Scenario{Name: "noop", Mutations: []scenario.Mutation{
				{Op: scenario.OpScaleLink, Link: links[int(seed)%len(links)], BandwidthFactor: 1}}})
		}
		for qi := 0; qi < 1+rng.Intn(3); qi++ {
			q := EvalQuery{Kind: QueryPredictTransfers, Transfers: transfers()}
			if rng.Intn(3) == 0 {
				hyps := make([]Hypothesis, 2+rng.Intn(2))
				for hi := range hyps {
					hyps[hi] = Hypothesis{Transfers: transfers()}
				}
				q = EvalQuery{Kind: QuerySelectFastest, Hypotheses: hyps}
			}
			if rng.Intn(4) == 0 {
				src, dst := pair()
				q.Background = [][2]string{{src, dst}}
			}
			req.Queries = append(req.Queries, q)
		}

		// Fresh evaluator pair per seed: no cross-seed cache warmth, and
		// the cold side must never observe the differential side's entries.
		diff := &Evaluator{Platforms: base.Platforms, Cache: NewForecastCache(256),
			Pool: NewWorkerPool(0), Overlays: NewOverlayCache(64)}
		cold := &Evaluator{Platforms: base.Platforms, Cache: NewForecastCache(256),
			Pool: NewWorkerPool(0), Overlays: NewOverlayCache(64), DisableDifferential: true}
		respD, errD := diff.Evaluate("p", req)
		respC, errC := cold.Evaluate("p", req)
		if (errD != nil) != (errC != nil) {
			t.Fatalf("seed %d: differential err %v, cold err %v", seed, errD, errC)
		}
		if errD != nil {
			continue
		}
		if d, c := diff.Cache.entries.Flights(), cold.Cache.entries.Flights(); d != 0 || c != 0 {
			t.Fatalf("seed %d: flights outlive the request: differential %d, cold %d", seed, d, c)
		}
		// Epoch ids come from a process-global allocation counter, so the
		// two evaluators may number the same derived pictures differently;
		// provenance strings identify the pictures content-wise instead.
		for i := range respD.Scenarios {
			respD.Scenarios[i].Epoch = 0
			respC.Scenarios[i].Epoch = 0
		}
		gotD, err := json.Marshal(respD.Scenarios)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gotC, err := json.Marshal(respC.Scenarios)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(gotD, gotC) {
			t.Fatalf("seed %d: differential response differs from cold:\n%s\n---\n%s", seed, gotD, gotC)
		}
		gotDirect, err := json.Marshal(directRows(entry, req))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(gotD, gotDirect) {
			t.Fatalf("seed %d: evaluate response differs from the direct endpoints:\n%s\n---\n%s", seed, gotD, gotDirect)
		}
		totals.ForkReused += respD.Stats.ForkReused
		totals.ForkRuns += respD.Stats.ForkRuns
		totals.ForkCold += respD.Stats.ForkCold
	}
	// The sweep must exercise reuse, fork, and cold fallback, or the test
	// proves less than it claims.
	if totals.ForkReused == 0 || totals.ForkRuns == 0 || totals.ForkCold == 0 {
		t.Fatalf("strategy coverage hole: %+v", totals)
	}
}

// directRows answers an evaluate request the slow, obvious way: each
// scenario compiled on its own, each cell one PredictTransfers call per
// transfer set on the derived snapshot. Epochs are left zero (the caller
// zeroes the evaluators' too).
//
// A workload's answer is defined on its canonical order — transfers sorted
// by (src, dst, size), background sorted — which decides, for instance,
// which transfer a failed link reports first; directPredict sorts with its
// own few lines rather than the serving path's canonicalize/reorder.
func directRows(entry PlatformEntry, req EvaluateRequest) []ScenarioResult {
	base := entry.snapshot()
	rows := make([]ScenarioResult, len(req.Scenarios))
	for si := range req.Scenarios {
		row := &rows[si]
		row.Name = req.Scenarios[si].Name
		snap, resolved, err := req.Scenarios[si].Compile(base, nil)
		if err != nil {
			row.Error = err.Error()
			continue
		}
		row.Provenance = snap.Provenance()
		row.BackgroundFlows = len(resolved.Background)
		derived := entry
		derived.Snapshot = snap
		row.Results = make([]EvalResult, len(req.Queries))
		for qi, q := range req.Queries {
			bg := append(append([][2]string(nil), resolved.Background...), q.Background...)
			cell := &row.Results[qi]
			if q.Kind == QueryPredictTransfers {
				preds, err := directPredict(derived, q.Transfers, bg)
				if err != nil {
					cell.Error = err.Error()
				}
				cell.Predictions = preds
				continue
			}
			best := 0
			for hi, h := range q.Hypotheses {
				preds, err := directPredict(derived, h.Transfers, bg)
				if err != nil {
					*cell = EvalResult{Error: fmt.Sprintf("hypothesis %d: %v", hi, err)}
					break
				}
				hr := HypothesisResult{Index: hi, Predictions: preds}
				for _, p := range preds {
					hr.Makespan = math.Max(hr.Makespan, p.Duration)
				}
				cell.Hypotheses = append(cell.Hypotheses, hr)
				if hr.Makespan < cell.Hypotheses[best].Makespan {
					best = hi
				}
				cell.Best = &best
			}
		}
	}
	return rows
}

func directPredict(entry PlatformEntry, transfers []TransferRequest, bg [][2]string) ([]Prediction, error) {
	idx := make([]int, len(transfers))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ta, tb := transfers[idx[a]], transfers[idx[b]]
		if ta.Src != tb.Src {
			return ta.Src < tb.Src
		}
		if ta.Dst != tb.Dst {
			return ta.Dst < tb.Dst
		}
		return ta.Size < tb.Size
	})
	sorted := make([]TransferRequest, len(transfers))
	for pos, i := range idx {
		sorted[pos] = transfers[i]
	}
	sort.Slice(bg, func(a, b int) bool {
		return bg[a][0] < bg[b][0] || bg[a][0] == bg[b][0] && bg[a][1] < bg[b][1]
	})
	preds, err := PredictTransfers(entry, sorted, bg)
	if err != nil {
		return nil, err
	}
	out := make([]Prediction, len(preds))
	for pos, i := range idx {
		out[i] = preds[pos]
	}
	return out, nil
}

// TestEvaluatePartialCellsMatchCold holds partial cells to the same oracles:
// every request carries a baseline scenario, so the base answers are at
// hand, beside scenarios that scale a link's bandwidth or set its latency,
// under queries of many transfers — the shape where a forked or cold cell
// re-runs only the transfers its delta reaches and copies the rest. The
// differential answer must be byte-identical to the all-cold evaluator's
// and to the direct endpoints', and the sweep must really copy.
func TestEvaluatePartialCellsMatchCold(t *testing.T) {
	base := newEvaluator(t)
	entry, _ := base.Platforms.Get("p")
	var hosts, links []string
	for _, h := range entry.Platform.Hosts() {
		hosts = append(hosts, h.ID)
	}
	for _, l := range entry.Platform.Links() {
		links = append(links, l.ID)
	}
	var work WorkerStats
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		transfers := func() []TransferRequest {
			out := make([]TransferRequest, 8+rng.Intn(25))
			for i := range out {
				a, b := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
				if b >= a {
					b++
				}
				out[i] = TransferRequest{Src: hosts[a], Dst: hosts[b], Size: 1e6 + float64(rng.Float64()*1e9)}
			}
			return out
		}
		req := EvaluateRequest{Scenarios: []scenario.Scenario{{Name: "baseline"}}}
		for range 2 + rng.Intn(4) {
			link := links[rng.Intn(len(links))]
			m := scenario.Mutation{Op: scenario.OpScaleLink, Link: link, BandwidthFactor: 0.05 + float64(3*rng.Float64())}
			if rng.Intn(3) == 0 {
				m = scenario.Mutation{Op: scenario.OpSetLink, Link: link, Latency: fptr(rng.Float64() * 1e-2)}
			}
			req.Scenarios = append(req.Scenarios, scenario.Scenario{Name: "s", Mutations: []scenario.Mutation{m}})
		}
		req.Queries = []EvalQuery{{Kind: QueryPredictTransfers, Transfers: transfers()}}
		if rng.Intn(2) == 0 {
			req.Queries = append(req.Queries, EvalQuery{Kind: QuerySelectFastest,
				Hypotheses: []Hypothesis{{Transfers: transfers()}, {Transfers: transfers()}}})
		}

		diff := &Evaluator{Platforms: base.Platforms, Cache: NewForecastCache(256),
			Pool: NewWorkerPool(0), Overlays: NewOverlayCache(64)}
		cold := &Evaluator{Platforms: base.Platforms, Cache: NewForecastCache(256),
			Pool: NewWorkerPool(0), Overlays: NewOverlayCache(64), DisableDifferential: true}
		respD, err := diff.Evaluate("p", req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		respC, err := cold.Evaluate("p", req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range respD.Scenarios {
			respD.Scenarios[i].Epoch = 0
			respC.Scenarios[i].Epoch = 0
		}
		gotD, _ := json.Marshal(respD.Scenarios)
		gotC, _ := json.Marshal(respC.Scenarios)
		gotDirect, _ := json.Marshal(directRows(entry, req))
		if !bytes.Equal(gotD, gotC) || !bytes.Equal(gotD, gotDirect) {
			t.Fatalf("seed %d: differential answer differs:\n%s\n--- cold\n%s\n--- direct\n%s", seed, gotD, gotC, gotDirect)
		}
		st := diff.Pool.Stats()
		work.EvaluateTransfersRerun += st.EvaluateTransfersRerun
		work.EvaluateTransfersCopied += st.EvaluateTransfersCopied
		if c := cold.Pool.Stats(); c.EvaluateTransfersRerun != 0 || c.EvaluateTransfersCopied != 0 {
			t.Fatalf("seed %d: the all-cold evaluator counted run-cell transfers: %+v", seed, c)
		}
	}
	t.Logf("run-cell transfers: %d re-run, %d copied", work.EvaluateTransfersRerun, work.EvaluateTransfersCopied)
	if work.EvaluateTransfersCopied == 0 || work.EvaluateTransfersRerun == 0 {
		t.Fatalf("partial cells not exercised: %+v", work)
	}
}
