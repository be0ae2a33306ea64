package pilgrim

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

// buildParallelEntry creates a small star platform entry for concurrency
// tests: enough hosts for distinct hypothesis pairs, cold route cache.
func buildParallelEntry(t *testing.T) PlatformEntry {
	t.Helper()
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	bb, err := as.AddLink("bb", 1e9, 1e-4, platform.Shared)
	if err != nil {
		t.Fatal(err)
	}
	const hosts = 8
	for i := 0; i < hosts; i++ {
		if _, err := as.AddHost(fmt.Sprintf("h%d", i), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	links := make([]*platform.Link, hosts)
	for i := 0; i < hosts; i++ {
		links[i], err = as.AddLink(fmt.Sprintf("l%d", i), 1e8, 1e-4, platform.FullDuplex)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			if i == j {
				continue
			}
			route := []platform.LinkUse{
				{Link: links[i], Direction: platform.Up},
				{Link: bb, Direction: platform.None},
				{Link: links[j], Direction: platform.Down},
			}
			if err := as.AddRoute(fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", j), route, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return PlatformEntry{Platform: p, Config: sim.DefaultConfig()}
}

func testHypotheses(n int) []Hypothesis {
	hyps := make([]Hypothesis, n)
	for i := range hyps {
		hyps[i] = Hypothesis{Transfers: []TransferRequest{
			{Src: fmt.Sprintf("h%d", i%7), Dst: fmt.Sprintf("h%d", (i+1)%7+1), Size: 1e8 + float64(float64(i)*1e6)},
			{Src: fmt.Sprintf("h%d", (i+2)%8), Dst: fmt.Sprintf("h%d", (i+5)%8), Size: 2e8},
		}}
	}
	return hyps
}

// TestSelectFastestParallelMatchesSequential checks that a wide pool
// returns exactly what a sequential (1-worker) evaluation returns.
func TestSelectFastestParallelMatchesSequential(t *testing.T) {
	entry := buildParallelEntry(t)
	hyps := testHypotheses(9)

	seqBest, seqResults, err := NewWorkerPool(1).SelectFastest(entry, hyps)
	if err != nil {
		t.Fatal(err)
	}
	parBest, parResults, err := NewWorkerPool(8).SelectFastest(entry, hyps)
	if err != nil {
		t.Fatal(err)
	}
	if seqBest != parBest {
		t.Fatalf("best: sequential %d, parallel %d", seqBest, parBest)
	}
	for i := range seqResults {
		if seqResults[i].Makespan != parResults[i].Makespan {
			t.Errorf("hypothesis %d makespan: sequential %v, parallel %v",
				i, seqResults[i].Makespan, parResults[i].Makespan)
		}
	}
}

// TestSelectFastestConcurrentRequests hammers one server-shaped stack —
// shared platform (route cache), shared forecast cache, shared worker
// pool — with concurrent select_fastest calls. Run under -race this is
// the concurrency safety net for the parallel forecast layer.
func TestSelectFastestConcurrentRequests(t *testing.T) {
	entry := buildParallelEntry(t)
	pool := NewWorkerPool(4)
	cache := NewForecastCache(32)
	hyps := testHypotheses(6)

	wantBest, wantResults, err := pool.SelectFastestCachedCtx(context.Background(), cache, "p", entry, hyps)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			best, results, err := pool.SelectFastestCachedCtx(context.Background(), cache, "p", entry, hyps)
			if err != nil {
				errs[g] = err
				return
			}
			if best != wantBest {
				errs[g] = fmt.Errorf("best %d, want %d", best, wantBest)
				return
			}
			for i := range results {
				if results[i].Makespan != wantResults[i].Makespan {
					errs[g] = fmt.Errorf("hypothesis %d makespan %v, want %v",
						i, results[i].Makespan, wantResults[i].Makespan)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if st := pool.Stats(); st.Hypotheses == 0 || st.Batches != 17 {
		t.Errorf("unexpected pool stats %+v", st)
	}
}

// TestCacheStatsIncludesWorkerMetrics checks the extended cache_stats
// payload: legacy cache counters stay top-level, pool telemetry appears
// under forecast_workers.
func TestCacheStatsIncludesWorkerMetrics(t *testing.T) {
	entry := buildParallelEntry(t)
	reg := NewRegistry()
	if err := reg.Add("star", entry); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, nil)
	srv.SetForecastWorkers(3)

	req := httptest.NewRequest("GET",
		"/pilgrim/select_fastest/star?hypothesis=h0,h1,1e8&hypothesis=h2,h3,2e8%3Bh4,h5,1e8", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("select_fastest: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/pilgrim/cache_stats", nil))
	if rec.Code != 200 {
		t.Fatalf("cache_stats: %d %s", rec.Code, rec.Body)
	}
	var got struct {
		Hits     *uint64      `json:"hits"`
		Misses   *uint64      `json:"misses"`
		Capacity *int         `json:"capacity"`
		Forecast *WorkerStats `json:"forecast_workers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding %s: %v", rec.Body, err)
	}
	if got.Hits == nil || got.Misses == nil || got.Capacity == nil {
		t.Fatalf("legacy cache fields missing in %s", rec.Body)
	}
	if got.Forecast == nil || got.Forecast.Workers != 3 {
		t.Fatalf("forecast_workers missing or wrong in %s", rec.Body)
	}
	if got.Forecast.Batches != 1 || got.Forecast.Hypotheses != 2 {
		t.Errorf("pool counters %+v, want 1 batch / 2 hypotheses", *got.Forecast)
	}
}
