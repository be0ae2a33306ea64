package platform

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// buildFloydMapRef is the historical map-based Floyd-Warshall over point
// names, kept as the reference for the dense-matrix rewrite: same sorted
// visit order, same epsilons, same tie-breaking.
func buildFloydMapRef(as *AS) map[pairKey]string {
	names := make([]string, 0, len(as.points))
	for _, pt := range as.points {
		names = append(names, pt.name)
	}
	sort.Strings(names)

	dist := make(map[pairKey]float64)
	next := make(map[pairKey]string)
	as.routes.each(func(s, d int32, lat float64) {
		k := pairKey{as.points[s].name, as.points[d].name}
		c := lat + 1e-12
		if old, ok := dist[k]; !ok || c < old {
			dist[k] = c
			next[k] = k.dst
		}
	})
	for _, k := range names {
		for _, i := range names {
			dik, ok := dist[pairKey{i, k}]
			if !ok {
				continue
			}
			for _, j := range names {
				if i == j {
					continue
				}
				dkj, ok := dist[pairKey{k, j}]
				if !ok {
					continue
				}
				if dij, ok := dist[pairKey{i, j}]; !ok || dik+dkj < dij-1e-15 {
					dist[pairKey{i, j}] = dik + dkj
					next[pairKey{i, j}] = next[pairKey{i, k}]
				}
			}
		}
	}
	return next
}

// TestBuildFloydMatchesMapReference builds random Floyd ASes — including
// zero-latency edges and equal-cost alternatives, the tie-breaking
// hotspots — and asserts the dense next-hop matrix agrees entry-for-entry
// with the historical map implementation.
func TestBuildFloydMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New("root", RoutingFloyd)
		as := p.Root()
		n := 4 + rng.Intn(8)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("r%02d", i)
			if _, err := as.AddRouter(names[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Random sparse edge set; latencies drawn from a tiny value pool so
		// equal-cost paths are common.
		lats := []float64{0, 1e-4, 1e-4, 2e-4, 1e-3}
		nl := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() > 0.45 {
					continue
				}
				l, err := as.AddLink(fmt.Sprintf("l%02d", nl), 1e9, lats[rng.Intn(len(lats))], Shared)
				if err != nil {
					t.Fatal(err)
				}
				nl++
				if err := as.AddRoute(names[i], names[j], []LinkUse{{Link: l, Direction: None}}, true); err != nil {
					t.Fatal(err)
				}
			}
		}

		want := buildFloydMapRef(as)
		next := as.buildFloyd()
		nn := int32(len(as.points))
		got := 0
		for i := int32(0); i < nn; i++ {
			for j := int32(0); j < nn; j++ {
				nx := next[i*nn+j]
				key := pairKey{as.points[i].name, as.points[j].name}
				wantNext, ok := want[key]
				if nx < 0 {
					if ok {
						t.Fatalf("seed %d: %v reachable in reference (%s) but not in dense", seed, key, wantNext)
					}
					continue
				}
				if !ok || wantNext != as.points[nx].name {
					t.Fatalf("seed %d: next[%v] = %s, reference %s", seed, key, as.points[nx].name, wantNext)
				}
				got++
			}
		}
		if got != len(want) {
			t.Fatalf("seed %d: dense table has %d entries, reference %d", seed, got, len(want))
		}
	}
}
