package platform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestApplyOverlayMatchesChainedWithLinkState is the differential
// property test of the scenario-overlay tentpole: for random batches of
// link revisions whose values a measurement could report (positive
// bandwidth, non-negative latency), ApplyOverlay in one batch must be
// bit-identical — every link's bandwidth and latency bits, latDirty
// behaviour included via RouteLatency — to chaining the equivalent
// name-addressed WithLinkState calls one revision at a time, "not
// measured" sentinels included.
func TestApplyOverlayMatchesChainedWithLinkState(t *testing.T) {
	p := buildMixedPlatform(t, 4)
	base := p.Snapshot()
	n := int32(base.NumLinks())
	if n < 4 {
		t.Fatalf("platform too small: %d links", n)
	}

	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + rng.Intn(int(n))
		overlay := make([]OverlayLink, count)
		chain := make([]LinkUpdate, count)
		for i := range overlay {
			li := int32(rng.Intn(int(n)))
			ou := OverlayLink{Link: li, Bandwidth: math.NaN(), Latency: math.NaN()}
			cu := LinkUpdate{Link: base.LinkName(li), Bandwidth: -1, Latency: -1}
			if rng.Intn(3) > 0 { // revise bandwidth
				bw := 1e6 + float64(rng.Float64()*2e8)
				ou.Bandwidth, cu.Bandwidth = bw, bw
			}
			if rng.Intn(3) == 0 { // revise latency
				lat := rng.Float64() * 1e-2
				ou.Latency, cu.Latency = lat, lat
			}
			overlay[i] = ou
			chain[i] = cu
		}

		got, err := base.ApplyOverlay(overlay, nil, "test")
		if err != nil {
			t.Fatalf("seed %d: ApplyOverlay: %v", seed, err)
		}
		want := base
		for _, cu := range chain {
			want, err = want.WithLinkState([]LinkUpdate{cu})
			if err != nil {
				t.Fatalf("seed %d: WithLinkState: %v", seed, err)
			}
		}

		for li := int32(0); li < n; li++ {
			gb, wb := got.LinkBandwidth(li), want.LinkBandwidth(li)
			gl, wl := got.LinkLatency(li), want.LinkLatency(li)
			if math.Float64bits(gb) != math.Float64bits(wb) {
				t.Fatalf("seed %d: link %d bandwidth %v != chained %v", seed, li, gb, wb)
			}
			if math.Float64bits(gl) != math.Float64bits(wl) {
				t.Fatalf("seed %d: link %d latency %v != chained %v", seed, li, gl, wl)
			}
		}

		// Route latencies must match bit-for-bit too (latDirty parity).
		hosts := []string{"lyon-0", "nancy-3", "cl-0", "cl-2"}
		for i, a := range hosts {
			for _, b := range hosts[i+1:] {
				gr, err := got.Route(a, b)
				if err != nil {
					t.Fatalf("route %s->%s: %v", a, b, err)
				}
				wr, err := want.Route(a, b)
				if err != nil {
					t.Fatalf("route %s->%s: %v", a, b, err)
				}
				if math.Float64bits(got.RouteLatency(gr)) != math.Float64bits(want.RouteLatency(wr)) {
					t.Fatalf("seed %d: route %s->%s latency %v != chained %v",
						seed, a, b, got.RouteLatency(gr), want.RouteLatency(wr))
				}
			}
		}

		// The overlay spent exactly one epoch id; the chain spent count.
		if got.Epoch() <= base.Epoch() {
			t.Fatalf("seed %d: overlay epoch %d not newer than base %d", seed, got.Epoch(), base.Epoch())
		}
	}
}

func TestApplyOverlayFailuresAndHosts(t *testing.T) {
	p := buildMixedPlatform(t, 2)
	base := p.Snapshot()
	li, ok := base.LinkIndex("lyon-0_nic")
	if !ok {
		t.Fatal("missing link")
	}
	hi, ok := base.HostIndex("nancy-1")
	if !ok {
		t.Fatal("missing host")
	}

	ns, err := base.ApplyOverlay(
		[]OverlayLink{{Link: li, Bandwidth: 0, Latency: math.NaN()}},
		[]OverlayHost{{Host: hi, Speed: 0}},
		"fail_link lyon-0_nic; fail_host nancy-1")
	if err != nil {
		t.Fatal(err)
	}
	if !ns.LinkDown(li) || ns.LinkBandwidth(li) != 0 {
		t.Errorf("link not failed: bw=%v", ns.LinkBandwidth(li))
	}
	if !ns.HostDown(hi) || ns.HostSpeed(hi) != 0 {
		t.Errorf("host not failed: speed=%v", ns.HostSpeed(hi))
	}
	if ns.Provenance() != "fail_link lyon-0_nic; fail_host nancy-1" {
		t.Errorf("provenance = %q", ns.Provenance())
	}
	// The base epoch is unaffected (copy-on-write).
	if base.LinkDown(li) || base.HostDown(hi) || base.Provenance() != "" {
		t.Error("base epoch mutated by overlay")
	}
	// Untouched state is shared bit-for-bit.
	for i := int32(0); i < int32(base.NumLinks()); i++ {
		if i == li {
			continue
		}
		if ns.LinkBandwidth(i) != base.LinkBandwidth(i) {
			t.Fatalf("untouched link %d changed", i)
		}
	}
	for i := int32(0); i < int32(base.NumHosts()); i++ {
		if i == hi {
			continue
		}
		if ns.HostSpeed(i) != base.HostSpeed(i) {
			t.Fatalf("untouched host %d changed", i)
		}
	}
}

func TestApplyOverlayRejectsInvalid(t *testing.T) {
	p := buildMixedPlatform(t, 2)
	base := p.Snapshot()
	cases := []struct {
		links []OverlayLink
		hosts []OverlayHost
	}{
		{links: []OverlayLink{{Link: -1, Bandwidth: 1e6, Latency: math.NaN()}}},
		{links: []OverlayLink{{Link: int32(base.NumLinks()), Bandwidth: 1e6, Latency: math.NaN()}}},
		{links: []OverlayLink{{Link: 0, Bandwidth: -5, Latency: math.NaN()}}},
		{links: []OverlayLink{{Link: 0, Bandwidth: math.Inf(1), Latency: math.NaN()}}},
		{links: []OverlayLink{{Link: 0, Bandwidth: math.NaN(), Latency: -1}}},
		{hosts: []OverlayHost{{Host: -1, Speed: 1e9}}},
		{hosts: []OverlayHost{{Host: int32(base.NumHosts()), Speed: 1e9}}},
		{hosts: []OverlayHost{{Host: 0, Speed: -1}}},
	}
	for i, c := range cases {
		if _, err := base.ApplyOverlay(c.links, c.hosts, ""); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestApplyOverlayOneCopyPerPage pins the batch-COW claim: a scenario
// touching many links on the same state page must copy that page once,
// not once per mutation.
func TestApplyOverlayOneCopyPerPage(t *testing.T) {
	p := New("flat", RoutingFull)
	as := p.Root()
	for i := 0; i < 2; i++ {
		if _, err := as.AddHost(fmt.Sprintf("h%d", i), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < statePageSize; i++ {
		if _, err := as.AddLink(fmt.Sprintf("l%03d", i), 1e8, 1e-4, Shared); err != nil {
			t.Fatal(err)
		}
	}
	base := p.Snapshot()
	overlay := make([]OverlayLink, statePageSize)
	for i := range overlay {
		overlay[i] = OverlayLink{Link: int32(i), Bandwidth: 5e7, Latency: math.NaN()}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := base.ApplyOverlay(overlay, nil, "scale all"); err != nil {
			t.Fatal(err)
		}
	})
	// One snapshot struct, three page tables, one copied bandwidth page:
	// well under one alloc per touched link.
	if allocs > 8 {
		t.Errorf("ApplyOverlay of %d same-page links allocated %.0f times", statePageSize, allocs)
	}
}

// TestAddHostRejectsSentinelSpeeds: 0 is the overlay failure sentinel and
// must never enter through the builder.
func TestAddHostRejectsSentinelSpeeds(t *testing.T) {
	p := New("v", RoutingFull)
	for _, speed := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := p.Root().AddHost("h", speed); err == nil {
			t.Errorf("speed %v accepted", speed)
		}
	}
}
