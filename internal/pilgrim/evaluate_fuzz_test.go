package pilgrim

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pilgrim/internal/scenario"
)

// evaluateFuzzSeeds are the grid shapes the serving path is built around,
// on the Mini platform's hosts: the benchmark's 8 × 30 what-if grid, a
// select_fastest grid, rows with cell and scenario errors, two queries
// sharing transfers, and one question under two sets of sizes with a reuse
// row between two fork rows (an encoder row template must not leak from one
// to the other).
func evaluateFuzzSeeds(t testing.TB, entry PlatformEntry) [][]byte {
	hosts := entry.Platform.Hosts()
	// Transfers run among hosts[2:] (12 hosts on Mini; 5 and 7 keep src and
	// dst distinct), so the first two hosts' NICs are off every route.
	pool := hosts[2:]
	transfers := func(n int, size float64) []TransferRequest {
		out := make([]TransferRequest, n)
		for i := range out {
			out[i] = TransferRequest{Src: pool[(5*i)%len(pool)].ID, Dst: pool[(5*i+7)%len(pool)].ID, Size: size + float64(i)}
		}
		return out
	}
	scale := func(name, link string, bw, lat float64) scenario.Scenario {
		return scenario.Scenario{Name: name, Mutations: []scenario.Mutation{
			{Op: scenario.OpScaleLink, Link: link, BandwidthFactor: bw, LatencyFactor: lat}}}
	}
	onPath, offPath := pool[0].ID+"_nic", hosts[0].ID+"_nic" // every transfers(…)[0] leaves pool[0]
	grid := []scenario.Scenario{
		{Name: "baseline"},
		scale("off-0", offPath, 0.5, 0), scale("off-1", hosts[1].ID+"_nic", 0.6, 0), scale("off-2", offPath, 0.7, 0),
		scale("bw-0", onPath, 0.5, 0), scale("bw-1", onPath, 0.6, 0), scale("bw-2", onPath, 0.7, 0),
		scale("lat", onPath, 0, 1.5),
	}
	failed := scenario.Scenario{Name: "failed", Mutations: []scenario.Mutation{{Op: scenario.OpFailLink, Link: onPath}}}
	ghost := scenario.Scenario{Name: "ghost", Mutations: []scenario.Mutation{{Op: scenario.OpFailLink, Link: "ghost"}}}
	reqs := []EvaluateRequest{
		{Scenarios: grid, Queries: []EvalQuery{{Kind: QueryPredictTransfers, Transfers: transfers(30, 5e8)}}},
		{Scenarios: grid[:5], Queries: []EvalQuery{{Kind: QuerySelectFastest, Hypotheses: []Hypothesis{
			{Transfers: transfers(3, 5e8)}, {Transfers: transfers(3, 1e9)}, {Transfers: transfers(2, 5e8)}}}}},
		{Scenarios: []scenario.Scenario{grid[0], failed, ghost, grid[4]}, Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: transfers(4, 5e8)},
			{Kind: QueryPredictTransfers, Transfers: []TransferRequest{{Src: "nowhere", Dst: hosts[0].ID, Size: 1}}}}},
		{Scenarios: grid[:2], Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: transfers(5, 5e8)},
			{Kind: QueryPredictTransfers, Transfers: transfers(5, 5e8), Background: [][2]string{{hosts[2].ID, hosts[3].ID}}},
			{Kind: QueryPredictTransfers, Transfers: transfers(5, 5e8)}}},
		{Scenarios: []scenario.Scenario{grid[4], grid[1], grid[5]}, Queries: []EvalQuery{
			{Kind: QueryPredictTransfers, Transfers: transfers(6, 5e8)},
			{Kind: QueryPredictTransfers, Transfers: transfers(6, 6e8)}}},
	}
	seeds := [][]byte{[]byte(`{}`), []byte(`{"queries":[{"kind":"predict_transfers"}]}`), []byte(`[`)}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	return seeds
}

// FuzzEvaluateHTTP pushes arbitrary bodies through the evaluate handler: it
// must never panic or answer 5xx, and whatever it answers 200 to must be
// served byte-identically by the hot encoder and by encoding/json. The
// first POST warms every cache (a grid mints fresh epoch ids, which the
// response carries); the next two replay it against identical server state,
// one per writer.
func FuzzEvaluateHTTP(f *testing.F) {
	entry := miniEntry(f)
	reg := NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		f.Fatal(err)
	}
	s := NewServer(reg, nil)
	s.SetForecastCache(1 << 20) // nothing a body can ask for is evicted between replays
	for _, seed := range evaluateFuzzSeeds(f, entry) {
		f.Add(seed)
	}
	post := func(body []byte, legacy bool) (int, []byte) {
		s.SetLegacyJSON(legacy)
		defer s.SetLegacyJSON(false)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/pilgrim/evaluate/g5k_test", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, _ := post(body, false)
		if code >= 500 {
			t.Fatalf("status %d", code)
		}
		if code != http.StatusOK {
			return
		}
		hotCode, hot := post(body, false)
		legacyCode, legacy := post(body, true)
		if hotCode != http.StatusOK || legacyCode != http.StatusOK {
			t.Fatalf("replays answered %d (hot) and %d (legacy) to a body first answered 200", hotCode, legacyCode)
		}
		if !bytes.Equal(hot, legacy) {
			t.Fatalf("hot and legacy bodies differ\nhot:    %q\nlegacy: %q", hot, legacy)
		}
	})
}
