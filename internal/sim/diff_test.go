package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pilgrim/internal/platform"
)

func requireSamePlanResults(t *testing.T, ctx string, got, want []PlanResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for qi := range want {
		g, w := got[qi], want[qi]
		if (g.Err != nil) != (w.Err != nil) {
			t.Fatalf("%s: query %d: err %v, want %v", ctx, qi, g.Err, w.Err)
		}
		if w.Err != nil {
			if g.Err.Error() != w.Err.Error() {
				t.Fatalf("%s: query %d: err %q, want %q", ctx, qi, g.Err, w.Err)
			}
			continue
		}
		if len(g.Results) != len(w.Results) {
			t.Fatalf("%s: query %d: %d transfers, want %d", ctx, qi, len(g.Results), len(w.Results))
		}
		for i := range w.Results {
			if math.Float64bits(g.Results[i].Completion) != math.Float64bits(w.Results[i].Completion) ||
				math.Float64bits(g.Results[i].Duration) != math.Float64bits(w.Results[i].Duration) {
				t.Fatalf("%s: query %d transfer %d: %v/%v, want %v/%v", ctx, qi, i,
					g.Results[i].Completion, g.Results[i].Duration,
					w.Results[i].Completion, w.Results[i].Duration)
			}
		}
	}
}

// randomPlanQueries builds 1-3 plan queries of concurrent transfers and
// occasional background flows over h hosts named h0..h{h-1}.
func randomPlanQueries(rng *rand.Rand, h int) []PlanQuery {
	name := func(i int) string { return fmt.Sprintf("h%d", i) }
	pair := func() (string, string) {
		a := rng.Intn(h)
		b := rng.Intn(h - 1)
		if b >= a {
			b++
		}
		return name(a), name(b)
	}
	queries := make([]PlanQuery, 1+rng.Intn(3))
	for qi := range queries {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			src, dst := pair()
			queries[qi].Transfers = append(queries[qi].Transfers, Transfer{
				Src: src, Dst: dst,
				Size:  math.Exp(rng.Float64()*9) * 1e4,
				Start: float64(rng.Intn(2)) * rng.Float64(),
			})
		}
		for i := 0; i < rng.Intn(3); i++ {
			src, dst := pair()
			queries[qi].Background = append(queries[qi].Background, [2]string{src, dst})
		}
	}
	return queries
}

// TestRunPlanDiffMatchesCold is the differential-vs-cold bit-identity
// property test: for random platforms, workloads, and overlay members
// (bandwidth scales on used and unused links, latency changes, link and
// host failures, even foreign topologies), every cell RunPlanDiff answers
// — by reuse or by a run on the member's epoch — must be bit-identical to
// a cold RunPlan on that member epoch.
func TestRunPlanDiffMatchesCold(t *testing.T) {
	var totals DiffStats
	for seed := int64(1); seed <= 45; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hosts := 4 + rng.Intn(4)
		plat := buildRandomPlatform(t, rng, hosts)
		base := plat.Snapshot()
		cfg := DefaultConfig()
		queries := randomPlanQueries(rng, hosts)

		members := make([]*platform.Snapshot, 1+rng.Intn(4))
		for mi := range members {
			if rng.Float64() < 0.08 {
				// Foreign topology: same host names, different compile.
				members[mi] = buildRandomPlatform(t, rng, hosts).Snapshot()
				continue
			}
			var links []platform.OverlayLink
			var hostsOv []platform.OverlayHost
			seen := map[int32]bool{}
			for i := 0; i < 1+rng.Intn(4); i++ {
				li := int32(rng.Intn(base.NumLinks()))
				if seen[li] {
					continue
				}
				seen[li] = true
				u := platform.OverlayLink{Link: li, Bandwidth: math.NaN(), Latency: math.NaN()}
				switch rng.Intn(6) {
				case 0:
					u.Bandwidth = 0 // fail the link
				case 1, 2, 3:
					u.Bandwidth = base.LinkBandwidth(li) * (0.3 + rng.Float64())
				case 4:
					u.Latency = rng.Float64() * 1e-3
				default:
					u.Bandwidth = base.LinkBandwidth(li) * (0.3 + rng.Float64())
					u.Latency = rng.Float64() * 1e-3
				}
				links = append(links, u)
			}
			if rng.Float64() < 0.15 {
				hostsOv = append(hostsOv, platform.OverlayHost{Host: int32(rng.Intn(hosts)), Speed: 0})
			}
			m, err := base.ApplyOverlay(links, hostsOv, "member")
			if err != nil {
				t.Fatalf("seed %d: overlay: %v", seed, err)
			}
			members[mi] = m
		}

		baseOut, memberOut, stats := RunPlanDiff(base, cfg, queries, members)
		requireSamePlanResults(t, fmt.Sprintf("seed %d base", seed),
			baseOut, RunPlan(base, cfg, queries))
		for mi, m := range members {
			requireSamePlanResults(t, fmt.Sprintf("seed %d member %d", seed, mi),
				memberOut[mi], RunPlan(m, cfg, queries))
		}
		if got, want := stats.Reused+stats.Forked+stats.Cold, len(members)*len(queries); got != want {
			t.Fatalf("seed %d: stats cover %d cells, want %d (%+v)", seed, got, want, stats)
		}
		totals.Reused += stats.Reused
		totals.Forked += stats.Forked
		totals.Cold += stats.Cold
	}
	// The sweep must exercise all three classes, or the test proves less
	// than it claims.
	if totals.Reused == 0 || totals.Forked == 0 || totals.Cold == 0 {
		t.Fatalf("class coverage hole: %+v", totals)
	}
}
