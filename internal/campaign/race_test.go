package campaign

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
)

// raceDoc deliberately carries no observe events: the concurrent
// observation writer is the timeline's only writer, so replays never
// race it on observation ordering. Assertions stay loose (bounds and
// an error match, no selection) — the routes they touch are disjoint
// from the link the writer feeds, so answers are stable no matter
// how the goroutines interleave.
const raceDoc = `name: race-drill
platform: g5k_mini
start: 1735689600
steps:
  - at: 30
    name: early
    scenarios:
      - name: baseline
      - name: nic-dead
        mutations:
          - {op: fail_link, link: sagittaire-1.lyon.grid5000.fr_nic}
    queries:
      - kind: predict_transfers
        transfers:
          - {src: sagittaire-1.lyon.grid5000.fr, dst: graphene-1.nancy.grid5000.fr, size: 1.0e8}
    assertions:
      - {type: bound, scenario: baseline, query: 0, metric: duration, transfer: 0, min: 0.001, max: 600}
      - {type: error, scenario: nic-dead, query: 0, contains: down}
  - at: 120
    name: late
    scenarios:
      - name: baseline
    queries:
      - kind: predict_transfers
        transfers:
          - {src: sagittaire-2.lyon.grid5000.fr, dst: graphene-2.nancy.grid5000.fr, size: 5.0e7}
    assertions:
      - {type: bound, scenario: baseline, query: 0, metric: duration, transfer: 0, min: 0.001, max: 600}
`

// TestReplayConcurrentWithIngestAndHTTP exercises the whole stack under
// contention on one registry: campaign replays (in-process and through
// a live HTTP server), a writer folding fresh observations into the
// platform timeline, and raw /pilgrim/evaluate traffic — all
// concurrently. Run under -race; assertion outcomes must not wobble.
func TestReplayConcurrentWithIngestAndHTTP(t *testing.T) {
	c, err := Load([]byte(raceDoc))
	if err != nil {
		t.Fatal(err)
	}
	registry, err := BuildRegistry(c.Platform)
	if err != nil {
		t.Fatal(err)
	}
	name := c.Platform.PlatformName()

	srv := httptest.NewServer(pilgrim.NewServer(registry, nil))
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Observations of graphene-8's NIC — a link no campaign query routes
	// over, so the concurrent bandwidth updates cannot shift assertions:
	// one every 15 seconds from the campaign start, as a gauge sampled
	// on that step would report them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := int64(DefaultStart) + 15; ts <= DefaultStart+300; ts += 15 {
			updates := []platform.LinkUpdate{{Link: "graphene-8.nancy.grid5000.fr_nic", Bandwidth: 9.0e7 + float64(ts%30), Latency: -1}}
			if _, err := registry.ObserveLinkState(name, ts, "racetest", updates); err != nil {
				errs <- fmt.Errorf("observe: %w", err)
				return
			}
		}
	}()

	// Two independent in-process replays sharing the registry.
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Replay(c, NewInProcessBackend(registry, name))
			if err != nil {
				errs <- fmt.Errorf("in-process replay %d: %w", i, err)
				return
			}
			if !rep.Summary.Passed {
				errs <- fmt.Errorf("in-process replay %d: %d/%d assertions failed",
					i, rep.Summary.FailedAssertions, rep.Summary.Assertions)
			}
		}()
	}

	// One replay through the live HTTP server.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rep, err := Replay(c, NewRemoteBackend(pilgrim.NewClient(srv.URL), name))
		if err != nil {
			errs <- fmt.Errorf("remote replay: %w", err)
			return
		}
		if !rep.Summary.Passed {
			errs <- fmt.Errorf("remote replay: %d/%d assertions failed",
				rep.Summary.FailedAssertions, rep.Summary.Assertions)
		}
	}()

	// Raw /pilgrim/evaluate traffic hammering the same grid.
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := pilgrim.NewClient(srv.URL)
			req := pilgrim.EvaluateRequest{
				At: DefaultStart + 30,
				Queries: []pilgrim.EvalQuery{{
					Kind: "predict_transfers",
					Transfers: []pilgrim.TransferRequest{
						{Src: "sagittaire-3.lyon.grid5000.fr", Dst: "graphene-3.nancy.grid5000.fr", Size: 1.0e7},
					},
				}},
			}
			for j := 0; j < 8; j++ {
				resp, err := client.Evaluate(name, req)
				if err != nil {
					errs <- fmt.Errorf("evaluate traffic %d: %w", i, err)
					return
				}
				if len(resp.Scenarios) != 1 || resp.Scenarios[0].Error != "" {
					errs <- fmt.Errorf("evaluate traffic %d: unexpected grid %+v", i, resp.Scenarios)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
