package pilgrim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pilgrim/internal/scenario"
)

// flightKey is a bare canonical key for tests that drive the flight table
// directly: the query alone tells keys apart.
func flightKey(query string) forecastKey { return forecastKey{query: query} }

// waitCoalesced returns once n requests have joined flights of fc. A join
// is counted under the cache lock at the moment the follower commits to the
// leader's flight, so the counter is the event itself — no sleep, nothing
// left to scheduler timing. The deadline only turns a join count that can
// never be reached into a failure instead of a hung test binary (Errorf, not
// Fatalf: leaders call this off the test goroutine).
func waitCoalesced(t *testing.T, fc *ForecastCache, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for fc.Stats().CoalescedHits < n {
		if time.Now().After(deadline) {
			t.Errorf("coalesced hits = %d, want %d", fc.Stats().CoalescedHits, n)
			return
		}
		runtime.Gosched()
	}
}

// TestCoalescingOneSimulationPerKey is the coalescing contract under
// -race: 64 concurrent requests over 8 distinct keys must pay exactly
// one simulation per distinct key. Each leader holds its flight open until
// every duplicate of every key has joined one, so all of them coalesce.
func TestCoalescingOneSimulationPerKey(t *testing.T) {
	const distinct, dup = 8, 8
	fc := NewForecastCache(64)
	var sims [distinct]atomic.Int64
	want := make([][]Prediction, distinct)
	for k := range want {
		want[k] = []Prediction{{Src: "a", Dst: "b", Size: float64(k), Duration: float64(k) * 2}}
	}

	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, distinct*dup)
	for k := 0; k < distinct; k++ {
		for d := 0; d < dup; d++ {
			done.Add(1)
			go func(k int) {
				defer done.Done()
				start.Wait()
				preds, err := fc.predictCanonical(context.Background(), flightKey(fmt.Sprintf("key-%d", k)), func() ([]Prediction, error) {
					sims[k].Add(1)
					waitCoalesced(t, fc, distinct*(dup-1))
					return want[k], nil
				})
				if err != nil {
					errs <- err
					return
				}
				if len(preds) != 1 || preds[0] != want[k][0] {
					errs <- fmt.Errorf("key %d: got %+v", k, preds)
				}
			}(k)
		}
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for k := range sims {
		if n := sims[k].Load(); n != 1 {
			t.Errorf("key %d simulated %d times, want exactly 1", k, n)
		}
	}
	st := fc.Stats()
	if st.Misses != distinct {
		t.Errorf("misses = %d, want %d (one per distinct key)", st.Misses, distinct)
	}
	if st.Hits+st.CoalescedHits != distinct*(dup-1) {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d",
			st.Hits, st.CoalescedHits, st.Hits+st.CoalescedHits, distinct*(dup-1))
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0: no flight settled before every duplicate had joined", st.Hits)
	}
}

// TestCoalescingEndToEndPredict drives the same contract through the
// real PredictCtx path on a real platform: concurrent identical and
// distinct predict requests, one simulation per distinct workload.
func TestCoalescingEndToEndPredict(t *testing.T) {
	entry := miniEntry(t)
	fc := NewForecastCache(64)
	const distinct, dup = 4, 16
	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, distinct*dup)
	for k := 0; k < distinct; k++ {
		reqs := []TransferRequest{{
			Src:  "sagittaire-1.lyon.grid5000.fr",
			Dst:  "sagittaire-2.lyon.grid5000.fr",
			Size: 1e8 * float64(k+1),
		}}
		for d := 0; d < dup; d++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, reqs, nil); err != nil {
					errs <- err
				}
			}()
		}
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := fc.Stats()
	if st.Misses != distinct {
		t.Errorf("misses = %d, want %d (one simulation per distinct workload)", st.Misses, distinct)
	}
	if st.Hits+st.CoalescedHits != distinct*(dup-1) {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d",
			st.Hits, st.CoalescedHits, st.Hits+st.CoalescedHits, distinct*(dup-1))
	}
}

// TestCoalescedFollowerHonorsDeadline pins the waiter contract: a
// follower's own ctx bounds its wait even while the leader runs on.
func TestCoalescedFollowerHonorsDeadline(t *testing.T) {
	fc := NewForecastCache(8)
	block := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderOut := make(chan error, 1)
	go func() {
		_, err := fc.predictCanonical(context.Background(), flightKey("slow"), func() ([]Prediction, error) {
			close(leaderIn)
			<-block
			return []Prediction{{Src: "a", Dst: "b"}}, nil
		})
		leaderOut <- err
	}()
	<-leaderIn

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := fc.predictCanonical(ctx, flightKey("slow"), func() ([]Prediction, error) {
		t.Error("follower must not simulate while the leader is in flight")
		return nil, nil
	}); err != context.DeadlineExceeded {
		t.Errorf("follower err = %v, want DeadlineExceeded", err)
	}

	close(block)
	if err := <-leaderOut; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if st := fc.Stats(); st.CoalescedHits != 1 {
		t.Errorf("coalesced = %d, want 1 (the expired follower)", st.CoalescedHits)
	}
}

// TestAbandonedFlightRetries pins the panic path: when a leader unwinds
// without an answer, a waiting follower re-enters the protocol and
// simulates instead of hanging or inheriting a zero answer.
func TestAbandonedFlightRetries(t *testing.T) {
	fc := NewForecastCache(8)
	leaderIn := make(chan struct{})
	followerIn := make(chan struct{})
	go func() {
		defer func() { recover() }()
		_, _ = fc.predictCanonical(context.Background(), flightKey("k"), func() ([]Prediction, error) {
			close(leaderIn)
			<-followerIn
			panic("simulated engine panic")
		})
	}()
	<-leaderIn

	want := []Prediction{{Src: "a", Dst: "b", Duration: 1}}
	done := make(chan struct{})
	var got []Prediction
	var err error
	go func() {
		defer close(done)
		got, err = fc.predictCanonical(context.Background(), flightKey("k"), func() ([]Prediction, error) {
			return want, nil
		})
	}()
	// The follower is parked on the leader's flight (coalesced counts
	// it); release the leader into its panic.
	waitCoalesced(t, fc, 1)
	close(followerIn)
	<-done
	if err != nil || len(got) != 1 || got[0] != want[0] {
		t.Fatalf("follower after abandon: got %+v, %v", got, err)
	}
}

// TestCoalescingConcurrentEvaluate races identical and distinct
// evaluate batches (runSuperGroup's lead-complete-wait
// paths) under -race and checks every cell still answers correctly.
func TestCoalescingConcurrentEvaluate(t *testing.T) {
	entry := miniEntry(t)
	reg := NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{
		Platforms: reg,
		Cache:     NewForecastCache(256),
		Pool:      NewWorkerPool(4),
		Overlays:  NewOverlayCache(32),
	}
	req := EvaluateRequest{
		Scenarios: []scenario.Scenario{
			{Name: "baseline"},
			{Name: "deg", Mutations: []scenario.Mutation{{
				Op: scenario.OpScaleLink, Link: testNIC, BandwidthFactor: 0.5,
			}}},
		},
		Queries: []EvalQuery{{
			Kind: QueryPredictTransfers,
			Transfers: []TransferRequest{{
				Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 5e8,
			}},
		}},
	}
	ref, err := ev.Evaluate("g5k_test", req)
	if err != nil {
		t.Fatal(err)
	}

	var start, done sync.WaitGroup
	start.Add(1)
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			resp, err := ev.EvaluateCtx(context.Background(), "g5k_test", req)
			if err != nil {
				errs <- err
				return
			}
			for si := range resp.Scenarios {
				a, b := resp.Scenarios[si], ref.Scenarios[si]
				if a.Error != b.Error || len(a.Results) != len(b.Results) {
					errs <- fmt.Errorf("scenario %d diverged: %+v vs %+v", si, a, b)
					return
				}
				for qi := range a.Results {
					ap, bp := a.Results[qi].Predictions, b.Results[qi].Predictions
					if len(ap) != len(bp) {
						errs <- fmt.Errorf("scenario %d cell %d: %d vs %d predictions", si, qi, len(ap), len(bp))
						return
					}
					for pi := range ap {
						if ap[pi] != bp[pi] {
							errs <- fmt.Errorf("scenario %d cell %d pred %d: %+v vs %+v", si, qi, pi, ap[pi], bp[pi])
							return
						}
					}
				}
			}
		}()
	}
	start.Done()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
