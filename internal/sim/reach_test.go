package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pilgrim/internal/platform"
)

// The oracle of Footprint.Reached is the full run: on a member epoch, a run
// of the reached transfers alone must give each of them the completion date
// a run of the whole query gives it, and every transfer left out must
// complete on the member exactly when it does on the base. Random g5k-like
// queries rarely put a constraint near the margins the proof leans on, so
// the cases below are built to: small platforms with Shared, FullDuplex and
// Fatpipe links, routes that may cross a link twice, and capacities placed
// at Σceil·(1+δ) for δ ∈ {0, 2⁻²⁰, 2⁻¹⁹} and one ulp either side, on the
// base or on the member epoch.

// reachEdges are the capacities a case may place a shared constraint at,
// relative to the sum of its members' ceilings on one epoch.
var reachEdges = [...]struct {
	delta float64
	ulps  int
}{
	{0, -1}, {0, 0}, {0, 1},
	{1.0 / (1 << 20), -1}, {1.0 / (1 << 20), 0}, {1.0 / (1 << 20), 1},
	{1.0 / (1 << 19), -1}, {1.0 / (1 << 19), 0}, {1.0 / (1 << 19), 1},
}

// reachCase is one base epoch, one member epoch derived from it, and a
// query to answer on both.
type reachCase struct {
	cfg          Config
	base, member *platform.Snapshot
	q            PlanQuery
	star         bool
	latOnly      int // mutated links whose latency alone changed
	edges        int // constraints placed at a margin edge
}

// reachPlatform builds a platform of a few links of random policies and a
// route of one to four traversals for every ordered host pair; a route may
// cross one link twice. A star platform routes host i to any other host
// over i's own Shared or FullDuplex link and the shared link l0: every
// transfer crosses l0, and its ceiling is the capacity of its source's
// link (or its window bound), which a flow fixed there gets as
// weight·(capacity/weight), a product that may round past the ceiling.
func reachPlatform(t testing.TB, rng *rand.Rand, star bool) (*platform.Platform, []string, int) {
	t.Helper()
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	hosts := make([]string, 3+rng.Intn(4))
	if star {
		hosts = make([]string, 4+rng.Intn(7))
	}
	nl := 3 + rng.Intn(6)
	if star {
		nl = 1 + len(hosts)
	}
	links := make([]*platform.Link, nl)
	for i := range links {
		policy := platform.Shared
		switch x := rng.Intn(20); {
		case star && i == 0:
		case star:
			policy = []platform.SharingPolicy{platform.Shared, platform.FullDuplex}[x%2]
		case x < 7:
			policy = platform.FullDuplex
		case x < 11:
			policy = platform.Fatpipe
		}
		lat := math.Exp(math.Log(1e-5) + float64(float64(rng.Float64())*math.Log(500)))
		var err error
		if links[i], err = as.AddLink(fmt.Sprintf("l%d", i), 1e7*(1+float64(99*rng.Float64())), lat, policy); err != nil {
			t.Fatal(err)
		}
	}
	for i := range hosts {
		hosts[i] = fmt.Sprintf("h%d", i)
		if _, err := as.AddHost(hosts[i], 1e9); err != nil {
			t.Fatal(err)
		}
	}
	dirs := []platform.Direction{platform.Up, platform.Down, platform.None}
	for i, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			route := make([]platform.LinkUse, 1+rng.Intn(4))
			for k := range route {
				route[k] = platform.LinkUse{Link: links[rng.Intn(nl)], Direction: dirs[rng.Intn(len(dirs))]}
			}
			if len(route) > 1 && rng.Intn(6) == 0 {
				route[len(route)-1] = route[0] // cross one link twice
			}
			if star {
				route = []platform.LinkUse{{Link: links[1+i]}, {Link: links[0]}}
			}
			if err := as.AddRoute(src, dst, route, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p, hosts, nl
}

// bandwidthFor returns a bandwidth whose capacity under bf is target (or
// the nearest the division reaches), moved by ulps units in the last place.
func bandwidthFor(target, bf float64, ulps int) float64 {
	bw := target / bf
	for i := 0; i < 4 && bw*bf != target; i++ {
		if bw*bf < target {
			bw = math.Nextafter(bw, math.Inf(1))
		} else {
			bw = math.Nextafter(bw, 0)
		}
	}
	for ; ulps > 0; ulps-- {
		bw = math.Nextafter(bw, math.Inf(1))
	}
	for ; ulps < 0; ulps++ {
		bw = math.Nextafter(bw, 0)
	}
	return bw
}

// newReachCase draws one case. edge < 0 draws every margin edge at random;
// otherwise every edge placed is reachEdges[edge]. A third of the cases are
// stars (see reachPlatform) of transfers from distinct sources, with an
// edge on the shared link: there a link just above the sum of its flows'
// ceilings can still be filled by the rounding of their rates.
func newReachCase(t testing.TB, rng *rand.Rand, edge int) reachCase {
	t.Helper()
	star := rng.Intn(3) == 0
	plat, hosts, nl := reachPlatform(t, rng, star)
	c := reachCase{cfg: DefaultConfig(), star: star}
	switch rng.Intn(5) {
	case 0:
		c.cfg.TCPGamma = 0
	case 1:
		c.cfg.BandwidthFactor = 1
	}
	if star && rng.Intn(2) == 0 {
		c.cfg.TCPGamma = 0 // every ceiling is a link's
	}
	srcs := rng.Perm(len(hosts))
	n := 1 + rng.Intn(10)
	if star {
		n = len(hosts) - rng.Intn(2)
	}
	for k := range n {
		a, b := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
		if star {
			a = srcs[k]
		}
		if b >= a {
			b++
		}
		tr := Transfer{Src: hosts[a], Dst: hosts[b], Size: math.Exp(float64(rng.Float64())*9) * 1e5}
		if star {
			tr.Size = 1e9 * (1 + float64(rng.Float64()))
		}
		if rng.Intn(4) == 0 {
			tr.Start = float64(rng.Float64()) * 0.05
		}
		c.q.Transfers = append(c.q.Transfers, tr)
	}
	b0 := plat.Snapshot()
	fp := PlanFootprint(b0, c.cfg, &c.q)
	if !fp.ok {
		t.Fatalf("unroutable query %+v", c.q)
	}

	// The member's mutations, as factors of the base values: mostly links
	// the query crosses, a quarter of them anywhere.
	type mutation struct {
		link     int32
		bw, lat  float64 // factors; NaN keeps
		edgeOnMe bool    // an edge placed on the member overrides bw
		edgeBW   float64
	}
	var muts []mutation
	for k := range 1 + rng.Intn(3) {
		li := int32(rng.Intn(nl))
		switch {
		case star && k == 0:
			li = int32(1 + srcs[rng.Intn(n)]) // one source's own link
		case star:
			continue
		case rng.Intn(4) != 0:
			refs := fp.routes[rng.Intn(n)].Refs
			li = refs[rng.Intn(len(refs))].LinkIndex()
		}
		dup := false
		for _, m := range muts {
			dup = dup || m.link == li
		}
		if dup {
			continue
		}
		m := mutation{link: li, bw: math.NaN(), lat: math.NaN()}
		switch rng.Intn(4) {
		case 0, 1:
			m.bw = 0.05 + float64(3*rng.Float64())
		case 2:
			m.lat = 0.1 + float64(3*rng.Float64())
			c.latOnly++
		default:
			m.bw = 0.05 + float64(3*rng.Float64())
			m.lat = 0.1 + float64(3*rng.Float64())
		}
		muts = append(muts, m)
	}
	// Bandwidths placed at an edge on the base, inherited by the member
	// unless a mutation scales them.
	baseBW := map[int32]float64{}
	build := func() {
		var ov []platform.OverlayLink
		for li, bw := range baseBW {
			ov = append(ov, platform.OverlayLink{Link: li, Bandwidth: bw, Latency: math.NaN()})
		}
		var err error
		if c.base, err = b0.ApplyOverlay(ov, nil, "edges"); err != nil {
			t.Fatal(err)
		}
		ov = ov[:0]
		for _, m := range muts {
			u := platform.OverlayLink{Link: m.link, Bandwidth: math.NaN(), Latency: math.NaN()}
			switch {
			case m.edgeOnMe:
				u.Bandwidth = m.edgeBW
			case !math.IsNaN(m.bw):
				u.Bandwidth = c.base.LinkBandwidth(m.link) * m.bw
			}
			if !math.IsNaN(m.lat) {
				u.Latency = c.base.LinkLatency(m.link) * m.lat
			}
			ov = append(ov, u)
		}
		if c.member, err = c.base.ApplyOverlay(ov, nil, "member"); err != nil {
			t.Fatal(err)
		}
	}
	build()

	// Edges: shared constraints with at least two members, placed on one
	// epoch at Σceil·(1+δ) ± ulps. Raising a capacity above every member's
	// ceiling leaves the ceilings alone once they no longer read it, so a
	// few rounds settle.
	type edgeAt struct {
		ref      int32
		onMember bool
		kind     int
	}
	var edges []edgeAt
	fp.share()
	for range rng.Intn(4) {
		ci := rng.Intn(len(fp.cref) + 1)
		if star {
			ci = slices.Index(fp.cref, int32(platform.MakeLinkRef(0, platform.None)))
		}
		if ci < 0 || ci == len(fp.cref) || fp.cmOff[ci+1]-fp.cmOff[ci] < 2 {
			continue
		}
		kind := edge
		if kind < 0 {
			kind = rng.Intn(len(reachEdges))
			if star && rng.Intn(2) == 0 {
				kind = 2 // one ulp above the sum
			}
		}
		edges = append(edges, edgeAt{ref: fp.cref[ci], onMember: rng.Intn(2) == 0, kind: kind})
		if star {
			break
		}
	}
	for range 4 {
		for _, e := range edges {
			snap := c.base
			if e.onMember {
				snap = c.member
			}
			f := PlanFootprint(snap, c.cfg, &c.q)
			f.share()
			for ci, ref := range f.cref {
				if ref != e.ref {
					continue
				}
				at := reachEdges[e.kind]
				bw := bandwidthFor(f.sum[ci]*(1+at.delta), c.cfg.BandwidthFactor, at.ulps)
				li := platform.LinkRef(ref).LinkIndex()
				placed := false
				for mi := range muts {
					if muts[mi].link == li && !math.IsNaN(muts[mi].bw) {
						if e.onMember {
							muts[mi].edgeOnMe, muts[mi].edgeBW = true, bw
						} else {
							baseBW[li] = bw
						}
						placed = true
					}
				}
				if !placed {
					baseBW[li] = bw
				}
			}
		}
		build()
	}
	c.edges = len(edges)
	return c
}

// reachTally counts what a set of cases exercised.
type reachTally struct {
	cases, partial, runs, reached, transfers int
	turned                                   int // constraints slack on the base, coupling on the member
	latOnly, edges                           int
}

// checkReachCase runs one case against its oracles: the full runs on the
// base and the member, and RunPlanDiff's answer for the member.
func checkReachCase(t *testing.T, c reachCase, tally *reachTally) {
	t.Helper()
	baseRes := RunPlan(c.base, c.cfg, []PlanQuery{c.q})[0]
	full := RunPlan(c.member, c.cfg, []PlanQuery{c.q})[0]
	_, diffOut, _ := RunPlanDiff(c.base, c.cfg, []PlanQuery{c.q}, []*platform.Snapshot{c.member})
	requireSamePlanResults(t, "RunPlanDiff", diffOut[0], []PlanResult{full})
	tally.cases++
	if baseRes.Err != nil || full.Err != nil {
		return
	}
	d, ok := platform.DiffSnapshots(c.base, c.member)
	if !ok {
		t.Fatal("member of another topology")
	}
	f := PlanFootprint(c.base, c.cfg, &c.q)
	reached, all := f.Reached(c.member, d, nil)
	n := len(c.q.Transfers)
	tally.runs++
	tally.transfers += n
	if all {
		tally.reached += n
		return
	}
	tally.partial++
	tally.reached += len(reached)
	tally.latOnly += c.latOnly
	tally.edges += c.edges
	fm := PlanFootprint(c.member, c.cfg, &c.q)
	fm.share()
	for ci := range f.cref {
		if f.flags[n+ci]&baseCouples == 0 && fm.flags[n+ci]&baseCouples != 0 {
			tally.turned++
		}
	}

	var sub PlanQuery
	for _, t := range reached {
		sub.Transfers = append(sub.Transfers, c.q.Transfers[t])
	}
	var part PlanResult
	if len(reached) > 0 { // a delta the routes miss reaches nothing
		part = RunPlan(c.member, c.cfg, []PlanQuery{sub})[0]
	}
	if part.Err != nil {
		t.Fatalf("reached-only run: %v (reached %v of %d)", part.Err, reached, n)
	}
	j := 0
	for i := range c.q.Transfers {
		want := full.Results[i].Completion
		got, from := baseRes.Results[i].Completion, "base"
		if j < len(reached) && int(reached[j]) == i {
			got, from = part.Results[j].Completion, "reached-only run"
			j++
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("transfer %d of %d: %s completes at %v (bits %#x), the full member run at %v (bits %#x); reached %v",
				i, n, from, got, math.Float64bits(got), want, math.Float64bits(want), reached)
		}
	}
}

// TestReachedMatchesFullRun is the edge-case property test of
// Footprint.Reached over 3 000 drawn cases.
func TestReachedMatchesFullRun(t *testing.T) {
	var tally reachTally
	for seed := int64(1); seed <= 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newReachCase(t, rng, -1)
		t.Run("", func(t *testing.T) {
			checkReachCase(t, c, &tally)
		})
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	t.Logf("%+v", tally)
	// The sweep must reach the shapes the proof is about, or it proves
	// less than it claims.
	if tally.partial < 500 || tally.turned < 30 || tally.latOnly < 150 || tally.edges < 300 ||
		tally.reached*20 > tally.transfers*19 {
		t.Fatalf("coverage hole: %+v", tally)
	}
}

// FuzzReached is TestReachedMatchesFullRun with the case drawn from fuzzed
// bytes; edge forces one margin edge for every constraint the case places
// (one corpus seed per edge).
func FuzzReached(f *testing.F) {
	for i := range reachEdges {
		f.Add([]byte(fmt.Sprintf("edge %d", i)), uint8(i))
	}
	f.Add([]byte{}, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, edge uint8) {
		if len(data) > 512 {
			t.Skip("long inputs only repeat what short ones cover")
		}
		kind := int(edge)
		if kind >= len(reachEdges) {
			kind = -1
		}
		var tally reachTally
		checkReachCase(t, newReachCase(t, rand.New(&byteSource{data: data}), kind), &tally)
	})
}
