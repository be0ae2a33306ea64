package scenario

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pilgrim/internal/platform"
)

// TestResolvedDeltaMatchesDiffSnapshots: the O(mutations) classification
// Delta computes without deriving an epoch must agree exactly with
// platform.DiffSnapshots over the actually derived epoch, for random
// scenarios mixing scales, sets, failures, and no-op re-assertions.
func TestResolvedDeltaMatchesDiffSnapshots(t *testing.T) {
	base := testSnapshot(t)
	linkNames := []string{"a_nic", "b_nic"}
	hostNames := []string{"a", "b"}

	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var muts []Mutation
		for i := 0; i < 1+rng.Intn(5); i++ {
			link := linkNames[rng.Intn(len(linkNames))]
			switch rng.Intn(5) {
			case 0:
				muts = append(muts, Mutation{Op: OpScaleLink, Link: link, BandwidthFactor: 0.25 + float64(rng.Float64())})
			case 1:
				// Scale by exactly 1: resolves to the current value, so the
				// delta must report nothing for it.
				muts = append(muts, Mutation{Op: OpScaleLink, Link: link, BandwidthFactor: 1})
			case 2:
				muts = append(muts, Mutation{Op: OpSetLink, Link: link, Latency: f64(rng.Float64() * 1e-2)})
			case 3:
				muts = append(muts, Mutation{Op: OpFailLink, Link: link})
			case 4:
				muts = append(muts, Mutation{Op: OpFailHost, Host: hostNames[rng.Intn(len(hostNames))]})
			}
		}
		sc := Scenario{Name: fmt.Sprintf("rand-%d", seed), Mutations: muts}
		r, err := sc.Resolve(base, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		derived, err := r.Apply(base)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, ok := platform.DiffSnapshots(base, derived)
		if !ok {
			t.Fatalf("seed %d: derived epoch not same-topology", seed)
		}
		got := r.Delta(base)
		for _, c := range []struct {
			name      string
			got, want []int32
		}{
			{"BwLinks", got.BwLinks, want.BwLinks},
			{"LatLinks", got.LatLinks, want.LatLinks},
			{"AvailLinks", got.AvailLinks, want.AvailLinks},
			{"SpeedHosts", got.SpeedHosts, want.SpeedHosts},
			{"AvailHosts", got.AvailHosts, want.AvailHosts},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("seed %d: %s = %v, want %v (scenario %+v)", seed, c.name, c.got, c.want, muts)
			}
		}
		if got.Empty() != want.Empty() {
			t.Fatalf("seed %d: Empty() mismatch", seed)
		}
	}
}
