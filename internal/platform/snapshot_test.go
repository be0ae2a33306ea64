package platform

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// buildMixedPlatform constructs a platform exercising every routing kind:
// two Full sites of nHosts hosts each, a Cluster site with a backbone, and
// a Floyd backbone AS is emulated by declaring the root's AS routes over a
// small router mesh.
func buildMixedPlatform(t testing.TB, nHosts int) *Platform {
	t.Helper()
	p := New("root", RoutingFull)
	root := p.Root()

	mkSite := func(name string) {
		as, err := root.AddAS("AS_"+name, RoutingFull)
		if err != nil {
			t.Fatal(err)
		}
		gw := name + "-gw"
		if _, err := as.AddRouter(gw); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nHosts; i++ {
			h := fmt.Sprintf("%s-%d", name, i)
			if _, err := as.AddHost(h, 1e9); err != nil {
				t.Fatal(err)
			}
			l, err := as.AddLink(h+"_nic", 125e6+float64(i)*1e4, 1e-4, Shared)
			if err != nil {
				t.Fatal(err)
			}
			if err := as.AddRoute(h, gw, []LinkUse{{Link: l, Direction: Up}}, true); err != nil {
				t.Fatal(err)
			}
		}
		// Host-to-host routes through both NICs.
		for i := 0; i < nHosts; i++ {
			for j := i + 1; j < nHosts; j++ {
				a := fmt.Sprintf("%s-%d", name, i)
				b := fmt.Sprintf("%s-%d", name, j)
				links := []LinkUse{
					{Link: p.Link(a + "_nic"), Direction: Up},
					{Link: p.Link(b + "_nic"), Direction: Down},
				}
				if err := as.AddRoute(a, b, links, true); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	mkSite("lyon")
	mkSite("nancy")

	// Cluster site.
	cas, err := root.AddAS("AS_cl", RoutingCluster)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cas.AddRouter("cl-gw"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nHosts; i++ {
		if _, err := cas.AddHost(fmt.Sprintf("cl-%d", i), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	bb, err := cas.AddLink("cl_bb", 1.25e9, 5e-5, Shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := cas.SetClusterTopology("cl-gw", 125e6, 1e-4, Shared, bb); err != nil {
		t.Fatal(err)
	}

	// Floyd mesh AS holding a relay router chain between two more hosts.
	fas, err := root.AddAS("AS_mesh", RoutingFloyd)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"m-in", "m-mid", "m-out"} {
		if _, err := fas.AddRouter(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fas.AddHost("mesh-0", 1e9); err != nil {
		t.Fatal(err)
	}
	e1, _ := fas.AddLink("m_e1", 1e9, 2e-4, FullDuplex)
	e2, _ := fas.AddLink("m_e2", 1e9, 1e-4, FullDuplex)
	e3, _ := fas.AddLink("m_e3", 1e9, 1e-4, FullDuplex)
	e4, _ := fas.AddLink("m_e4", 1e9, 5e-4, FullDuplex)
	if err := fas.AddRoute("m-in", "m-mid", []LinkUse{{Link: e1, Direction: Up}}, true); err != nil {
		t.Fatal(err)
	}
	if err := fas.AddRoute("m-mid", "m-out", []LinkUse{{Link: e2, Direction: Up}}, true); err != nil {
		t.Fatal(err)
	}
	if err := fas.AddRoute("mesh-0", "m-in", []LinkUse{{Link: e3, Direction: Up}}, true); err != nil {
		t.Fatal(err)
	}
	if err := fas.AddRoute("m-in", "m-out", []LinkUse{{Link: e4, Direction: Up}}, true); err != nil {
		t.Fatal(err)
	}

	// Backbone links joining the ASes at the root.
	join := func(a, gwA, b, gwB, link string, lat float64) {
		l, err := root.AddLink(link, 1.25e9, lat, FullDuplex)
		if err != nil {
			t.Fatal(err)
		}
		if err := root.AddASRoute(a, gwA, b, gwB, []LinkUse{{Link: l, Direction: Up}}, true); err != nil {
			t.Fatal(err)
		}
	}
	join("AS_lyon", "lyon-gw", "AS_nancy", "nancy-gw", "bb_ln", 2.25e-3)
	join("AS_lyon", "lyon-gw", "AS_cl", "cl-gw", "bb_lc", 2.25e-3)
	join("AS_nancy", "nancy-gw", "AS_cl", "cl-gw", "bb_nc", 2.5e-3)
	join("AS_lyon", "lyon-gw", "AS_mesh", "m-in", "bb_lm", 3e-3)
	join("AS_nancy", "nancy-gw", "AS_mesh", "m-out", "bb_nm", 3e-3)
	join("AS_cl", "cl-gw", "AS_mesh", "m-in", "bb_cm", 3.5e-3)
	return p
}

// routeMismatch reports how a compiled route differs from a builder
// route — links, order, directions, latency bits — or nil when it is
// bit-identical.
func routeMismatch(s *Snapshot, want linkRoute, got *CompiledRoute) error {
	if len(want.Links) != len(got.Refs) {
		return fmt.Errorf("%d links vs %d refs", len(want.Links), len(got.Refs))
	}
	for i, u := range want.Links {
		ref := got.Refs[i]
		if s.LinkName(ref.LinkIndex()) != u.Link.ID || ref.Direction() != u.Direction {
			return fmt.Errorf("hop %d: want %s:%v got %s:%v", i,
				u.Link.ID, u.Direction, s.LinkName(ref.LinkIndex()), ref.Direction())
		}
	}
	if math.Float64bits(want.Latency) != math.Float64bits(s.RouteLatency(got)) {
		return fmt.Errorf("latency %v vs %v (bits differ)", want.Latency, s.RouteLatency(got))
	}
	return nil
}

// requireSameRoute asserts a compiled route is bit-identical to a builder
// route.
func requireSameRoute(t *testing.T, s *Snapshot, want linkRoute, got *CompiledRoute, whoA, whoB string) {
	t.Helper()
	if err := routeMismatch(s, want, got); err != nil {
		t.Fatalf("%s->%s: %v", whoA, whoB, err)
	}
}

// TestSnapshotRouteEquivalence checks Snapshot.Route against the reference
// resolver (refRouteBetween)
// for every endpoint pair of a platform mixing Full, Floyd and Cluster
// routing.
func TestSnapshotRouteEquivalence(t *testing.T) {
	p := buildMixedPlatform(t, 4)
	s := p.Snapshot()

	var points []string
	for _, h := range p.Hosts() {
		points = append(points, h.ID)
	}
	points = append(points, "lyon-gw", "nancy-gw", "cl-gw", "m-in", "m-mid", "m-out")

	for _, a := range points {
		for _, b := range points {
			if a == b {
				continue
			}
			want, errW := p.refRouteBetween(a, b)
			got, errG := s.Route(a, b)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("%s->%s: refRouteBetween err=%v, Snapshot err=%v", a, b, errW, errG)
			}
			if errW != nil {
				continue
			}
			requireSameRoute(t, s, want, got, a, b)
		}
	}
}

// TestSnapshotRouteErrors checks the error paths mirror the builder's.
func TestSnapshotRouteErrors(t *testing.T) {
	p := buildMixedPlatform(t, 2)
	s := p.Snapshot()
	if _, err := s.Route("lyon-0", "lyon-0"); err == nil {
		t.Fatal("self route should fail")
	}
	if _, err := s.Route("lyon-0", "nonexistent"); err == nil {
		t.Fatal("unknown endpoint should fail")
	}
	if _, err := s.Route("nonexistent", "lyon-0"); err == nil {
		t.Fatal("unknown endpoint should fail")
	}
}

// TestSnapshotMemoInvalidation checks that builder mutations recompile.
func TestSnapshotMemoInvalidation(t *testing.T) {
	p := buildMixedPlatform(t, 2)
	s1 := p.Snapshot()
	if s2 := p.Snapshot(); s1 != s2 {
		t.Fatal("snapshot memo not reused")
	}
	if _, err := p.Root().AddLink("late", 1e9, 1e-3, Shared); err != nil {
		t.Fatal(err)
	}
	s3 := p.Snapshot()
	if s3 == s1 {
		t.Fatal("mutation did not invalidate the snapshot memo")
	}
	if s3.Epoch() <= s1.Epoch() {
		t.Fatalf("epochs must be strictly increasing: %d then %d", s1.Epoch(), s3.Epoch())
	}
	if _, ok := s3.LinkIndex("late"); !ok {
		t.Fatal("recompiled snapshot misses the new link")
	}
	if _, ok := s1.LinkIndex("late"); ok {
		t.Fatal("old snapshot must not see the new link")
	}
}

// TestWithLinkState checks copy-on-write epoch derivation: updates land in
// the new epoch only, unrelated links share state, and a round trip back
// to the original values restores bit-identical route latencies.
func TestWithLinkState(t *testing.T) {
	p := buildMixedPlatform(t, 4)
	s0 := p.Snapshot()
	li, ok := s0.LinkIndex("lyon-0_nic")
	if !ok {
		t.Fatal("missing link")
	}
	origBW, origLat := s0.LinkBandwidth(li), s0.LinkLatency(li)

	s1, err := s0.WithLinkState([]LinkUpdate{{Link: "lyon-0_nic", Bandwidth: 9e6, Latency: 3e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch() <= s0.Epoch() {
		t.Fatal("derived epoch must be newer")
	}
	if got := s1.LinkBandwidth(li); got != 9e6 {
		t.Fatalf("bandwidth not updated: %v", got)
	}
	if got := s1.LinkLatency(li); got != 3e-3 {
		t.Fatalf("latency not updated: %v", got)
	}
	if s0.LinkBandwidth(li) != origBW || s0.LinkLatency(li) != origLat {
		t.Fatal("parent epoch mutated")
	}

	// Keep-current sentinels.
	s2, err := s1.WithLinkState([]LinkUpdate{{Link: "lyon-0_nic", Bandwidth: -1, Latency: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.LinkBandwidth(li) != 9e6 || s2.LinkLatency(li) != 3e-3 {
		t.Fatal("negative update values must keep current state")
	}

	if _, err := s0.WithLinkState([]LinkUpdate{{Link: "ghost", Bandwidth: 1}}); err == nil {
		t.Fatal("unknown link must fail")
	}

	// Routes crossing the updated link see the revised latency; others are
	// untouched bit-for-bit.
	r, err := s1.Route("lyon-0", "lyon-1")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := s0.Route("lyon-0", "lyon-1")
	wantLat := base.Latency + (3e-3 - origLat)
	if got := s1.RouteLatency(r); got != wantLat {
		t.Fatalf("updated route latency: got %v want %v", got, wantLat)
	}
	other, err := s1.Route("nancy-0", "nancy-1")
	if err != nil {
		t.Fatal(err)
	}
	otherBase, _ := s0.Route("nancy-0", "nancy-1")
	if math.Float64bits(s1.RouteLatency(other)) != math.Float64bits(s0.RouteLatency(otherBase)) {
		t.Fatal("unrelated route latency changed")
	}

	// Round trip: revert to the original values; every route latency must
	// come back bit-identical to the base epoch even though the epoch is
	// marked latency-dirty.
	s3, err := s1.WithLinkState([]LinkUpdate{{Link: "lyon-0_nic", Bandwidth: origBW, Latency: origLat}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"lyon-0", "lyon-1"}, {"lyon-0", "nancy-3"}, {"cl-0", "cl-1"}, {"mesh-0", "lyon-2"}} {
		rr, err := s3.Route(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.refRouteBetween(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(s3.RouteLatency(rr)) != math.Float64bits(want.Latency) {
			t.Fatalf("%v: round-trip latency %v != original %v", pair, s3.RouteLatency(rr), want.Latency)
		}
		if s3.LinkBandwidth(li) != origBW {
			t.Fatal("round-trip bandwidth mismatch")
		}
	}
}

// TestWithLinkStateAllocBound pins the copy-on-write claim: deriving an
// epoch with one changed link allocates a few state pages and the page
// tables — not the O(platform) arrays a naive copy would. The bound is
// asserted on a platform ~4x larger than the first to show the cost does
// not scale with the link count.
func TestWithLinkStateAllocBound(t *testing.T) {
	small := buildMixedPlatform(t, 8).Snapshot()
	big := buildMixedPlatform(t, 32).Snapshot()
	upd := []LinkUpdate{{Link: "lyon-0_nic", Bandwidth: 1e6, Latency: 1e-3}}

	allocs := func(s *Snapshot) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := s.WithLinkState(upd); err != nil {
				t.Fatal(err)
			}
		})
	}
	aSmall, aBig := allocs(small), allocs(big)
	if aBig > aSmall+2 {
		t.Fatalf("allocation count grew with platform size: %v (small) vs %v (big)", aSmall, aBig)
	}
	if aBig > 12 {
		t.Fatalf("WithLinkState allocates too much: %v allocs for a 1-link update", aBig)
	}
}

// TestSnapshotConcurrentAccess hammers the lock-free structures from many
// goroutines — cold and warm route resolutions racing with epoch
// derivations — and checks (under -race in CI) that every answer matches
// the sequentially resolved truth.
func TestSnapshotConcurrentAccess(t *testing.T) {
	p := buildMixedPlatform(t, 6)
	s := p.Snapshot()
	hosts := p.Hosts()
	truth := make(map[[2]string]float64)
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			r, err := p.refRouteBetween(a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			truth[[2]string{a.ID, b.ID}] = r.Latency
		}
	}
	// Fresh snapshot so every pair starts cold and resolutions race.
	p.InvalidateRouteCache()
	s = p.Snapshot()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				a := hosts[(g*7+iter)%len(hosts)].ID
				b := hosts[(g*13+iter*3+1)%len(hosts)].ID
				if a == b {
					continue
				}
				r, err := s.Route(a, b)
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.RouteLatency(r); got != truth[[2]string{a, b}] {
					t.Errorf("%s->%s: %v != %v", a, b, got, truth[[2]string{a, b}])
					return
				}
				if iter%17 == 0 {
					if _, err := s.WithLinkState([]LinkUpdate{{Link: "cl_bb", Bandwidth: 1e9 + float64(iter), Latency: -1}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSnapshotConcurrentPublication publishes every ordered endpoint pair
// of a platform with more pairs than one route chunk and more links than
// one arena chunk from many goroutines at once, so chunks grow while
// other goroutines read. Half the goroutines go through epochs derived
// with WithLinkState. Every answer is checked against the builder's
// resolver, which shares nothing with the snapshot's memo (links,
// directions, latency bits), and every caller in every epoch must get the
// same pointer for a pair.
func TestSnapshotConcurrentPublication(t *testing.T) {
	p := buildMixedPlatform(t, 24)
	points := []string{"lyon-gw", "nancy-gw", "cl-gw", "m-in", "m-mid", "m-out"}
	for _, h := range p.Hosts() {
		points = append(points, h.ID)
	}
	var pairs [][2]string
	var want []linkRoute
	links := 0
	for _, a := range points {
		for _, b := range points {
			if a == b {
				continue
			}
			r, err := p.refRouteBetween(a, b)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, [2]string{a, b})
			want = append(want, r)
			links += len(r.Links)
		}
	}
	if len(pairs) <= memoChunkSize || links <= memoRefChunk {
		t.Fatalf("platform too small to grow the memo: %d pairs, %d links", len(pairs), links)
	}

	s := p.Compile()
	const workers = 8
	got := make([][]*CompiledRoute, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		got[g] = make([]*CompiledRoute, len(pairs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			snap := s
			for k := range pairs {
				// Even goroutines walk forwards together, contending for
				// the same cold pairs; odd ones walk backwards, crossing
				// them, and re-derive their epoch every 500 pairs.
				i := k
				if g%2 == 1 {
					i = len(pairs) - 1 - k
					if k%500 == 0 {
						var err error
						if snap, err = s.WithLinkState([]LinkUpdate{{Link: "cl_bb", Bandwidth: 1e9 + float64(k), Latency: -1}}); err != nil {
							t.Error(err)
							return
						}
					}
				}
				r, err := snap.Route(pairs[i][0], pairs[i][1])
				if err != nil {
					t.Error(err)
					return
				}
				if err := routeMismatch(snap, want[i], r); err != nil {
					t.Errorf("%s->%s (goroutine %d): %v", pairs[i][0], pairs[i][1], g, err)
					return
				}
				got[g][i] = r
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	late, err := s.WithLinkState([]LinkUpdate{{Link: "bb_ln", Bandwidth: 2e9, Latency: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range pairs {
		first := got[0][i]
		for g := 1; g < workers; g++ {
			if got[g][i] != first {
				t.Fatalf("%s->%s: goroutines 0 and %d got different routes", pr[0], pr[1], g)
			}
		}
		for _, snap := range []*Snapshot{s, late} {
			r, err := snap.Route(pr[0], pr[1])
			if err != nil {
				t.Fatal(err)
			}
			if r != first {
				t.Fatalf("%s->%s: epoch %d republished the route", pr[0], pr[1], snap.Epoch())
			}
		}
		// Published routes never move: the first answer still holds the
		// right links after every later chunk was allocated.
		requireSameRoute(t, s, want[i], first, pr[0], pr[1])
	}
}

// TestConcurrentFirstSnapshot races the first Snapshot calls of fresh
// platforms holding a Floyd AS (run it under -race: Platform.mu is what
// serializes the Floyd builds). The platform must compile once per
// round — each compile mints an epoch — every caller must get that one
// snapshot, and its routes through the Floyd AS must match the reference.
func TestConcurrentFirstSnapshot(t *testing.T) {
	pairs := [][2]string{{"mesh-0", "m-out"}, {"lyon-1", "mesh-0"}, {"m-out", "cl-2"}}
	const workers = 8
	for round := 0; round < 20; round++ {
		p := buildMixedPlatform(t, 3)
		before := snapshotEpochs.Load()
		got := make([]*Snapshot, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g] = p.Snapshot()
			}(g)
		}
		close(start)
		wg.Wait()
		if n := snapshotEpochs.Load() - before; n != 1 {
			t.Fatalf("round %d: %d racing first callers compiled %d times, want once", round, workers, n)
		}
		for g, s := range got {
			if s != got[0] {
				t.Fatalf("round %d: goroutine %d got snapshot epoch %d, goroutine 0 epoch %d", round, g, s.Epoch(), got[0].Epoch())
			}
		}
		for _, pr := range pairs {
			want, err := p.refRouteBetween(pr[0], pr[1])
			if err != nil {
				t.Fatal(err)
			}
			r, err := got[0].Route(pr[0], pr[1])
			if err != nil {
				t.Fatal(err)
			}
			requireSameRoute(t, got[0], want, r, pr[0], pr[1])
		}
	}
}
