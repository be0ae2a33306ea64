package platgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

// obsBatch is one timestamped observation batch of the differential
// stream.
type obsBatch struct {
	t       int64
	updates []platform.LinkUpdate
}

// epochAt returns the directly chained epoch governing time at, where
// direct[i+1] is the epoch published by stream[i] (direct[0] = base).
func epochAt(stream []obsBatch, direct []*platform.Snapshot, at int64) *platform.Snapshot {
	idx := 0
	for i, o := range stream {
		if o.t <= at {
			idx = i + 1
		}
	}
	return direct[idx]
}

// TestTimelineDifferentialRandomPlatforms is the temporal-equivalence
// property test: over randomized platgen platforms, a stream of
// timestamped observation batches folded through a Timeline must yield —
// at every query time — epochs whose simulations are bit-identical to the
// same epochs built directly by chaining Snapshot.WithLinkState. This
// pins the tentpole claim that the timeline is pure bookkeeping: history
// indexing never perturbs the simulated physics.
func TestTimelineDifferentialRandomPlatforms(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 977))
		ref := randomReference(rng)
		variant := []Variant{G5KTest, G5KCabinets}[seed%2]
		plat, err := Generate(ref, Options{Variant: variant})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap := plat.Snapshot()
		hosts := plat.Hosts()
		cfg := sim.DefaultConfig()

		// A fixed transfer workload simulated against every epoch.
		var reqs []pilgrim.TransferRequest
		for k := 0; k < 5; k++ {
			reqs = append(reqs, pilgrim.TransferRequest{
				Src: hosts[rng.Intn(len(hosts))].ID, Dst: hosts[rng.Intn(len(hosts))].ID,
				Size: 1e6 + float64(rng.Float64()*1e9),
			})
		}
		for i := range reqs {
			for reqs[i].Src == reqs[i].Dst {
				reqs[i].Dst = hosts[rng.Intn(len(hosts))].ID
			}
		}

		// Random observation stream: increasing timestamps, random link
		// subsets, bandwidth and/or latency revisions.
		var stream []obsBatch
		now := int64(1000)
		for b := 0; b < 9; b++ {
			now += 10 + int64(rng.Intn(300))
			var ups []platform.LinkUpdate
			for k := 0; k < 1+rng.Intn(4); k++ {
				li := int32(rng.Intn(snap.NumLinks()))
				u := platform.LinkUpdate{Link: snap.LinkName(li), Bandwidth: -1, Latency: -1}
				if rng.Intn(3) != 0 {
					u.Bandwidth = 1e7 + float64(rng.Float64()*1e9)
				}
				if rng.Intn(3) == 0 {
					u.Latency = 1e-4 + float64(rng.Float64()*1e-2)
				}
				ups = append(ups, u)
			}
			stream = append(stream, obsBatch{t: now, updates: ups})
		}

		// Fold the stream through a timeline (bounded wider than the
		// stream) and, independently, chain epochs by hand.
		tl := platform.NewTimeline(snap, 16)
		direct := []*platform.Snapshot{snap}
		for _, o := range stream {
			if _, err := tl.Append(o.t, fmt.Sprintf("seed%d", seed), o.updates); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			next, err := direct[len(direct)-1].WithLinkState(o.updates)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			direct = append(direct, next)
		}

		predict := func(s *platform.Snapshot) []pilgrim.Prediction {
			out, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: plat, Config: cfg, Snapshot: s}, reqs, nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return out
		}

		// Query at every observation time, between observations, before
		// the first, and after the last: the timeline must answer the
		// exact same simulated physics as the directly chained epoch.
		ats := []int64{stream[0].t - 1, stream[len(stream)-1].t + 1000}
		for _, o := range stream {
			ats = append(ats, o.t, o.t+5)
		}
		for _, at := range ats {
			got := predict(tl.AtTime(at))
			want := predict(epochAt(stream, direct, at))
			for i := range want {
				if math.Float64bits(got[i].Duration) != math.Float64bits(want[i].Duration) {
					t.Fatalf("seed %d at=%d transfer %d: timeline duration %v != direct %v",
						seed, at, i, got[i].Duration, want[i].Duration)
				}
			}
		}
	}
}
