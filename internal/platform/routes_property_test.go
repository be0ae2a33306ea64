package platform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// declaredRoute is the property test's own record of one route: what it
// passed to AddRoute/AddASRoute (or what the cluster rule implies), with
// the latency summed in declared order.
type declaredRoute struct {
	links []LinkUse
	lat   float64
}

// recordRoute records a declaration, summing its latency link by link.
func recordRoute(links []LinkUse) declaredRoute {
	r := declaredRoute{links: links}
	for _, u := range links {
		r.lat += u.Link.Latency
	}
	return r
}

func (r declaredRoute) reversed() declaredRoute {
	out := declaredRoute{lat: r.lat}
	for i := len(r.links) - 1; i >= 0; i-- {
		out.links = append(out.links, r.links[i].Reverse())
	}
	return out
}

// modelAS is what the test declared inside one child AS.
type modelAS struct {
	as     *AS
	gw     string
	points []string
	routes map[[2]string]declaredRoute // Full routes, Floyd edges
	// Floyd: the undirected tree the edges were declared over.
	treeParent map[string]string
	// Cluster: per-host private link and optional backbone.
	private map[string]*Link
	bb      *Link
}

// local returns the model's route between two points of the AS.
func (m *modelAS) local(a, b string) (declaredRoute, bool) {
	switch m.as.Routing {
	case RoutingFull:
		r, ok := m.routes[[2]string{a, b}]
		return r, ok
	case RoutingFloyd:
		// The declared edges form a tree, so the shortest path is the only
		// path: up from a to the common ancestor, then down to b.
		depth := func(p string) int {
			d := 0
			for ; p != m.points[0]; p = m.treeParent[p] {
				d++
			}
			return d
		}
		var up, down []string
		x, y := a, b
		for dx, dy := depth(x), depth(y); x != y; {
			if dx >= dy {
				up = append(up, x)
				x, dx = m.treeParent[x], dx-1
			} else {
				down = append(down, y)
				y, dy = m.treeParent[y], dy-1
			}
		}
		path := append(up, x)
		for i := len(down) - 1; i >= 0; i-- {
			path = append(path, down[i])
		}
		var out declaredRoute
		for i := 0; i+1 < len(path); i++ {
			e, ok := m.routes[[2]string{path[i], path[i+1]}]
			if !ok {
				return declaredRoute{}, false
			}
			out.links = append(out.links, e.links...)
			out.lat += e.lat
		}
		return out, true
	default: // Cluster
		var out declaredRoute
		if l := m.private[a]; l != nil {
			out.links = append(out.links, LinkUse{l, Up})
			out.lat += l.Latency
		}
		if m.bb != nil {
			out.links = append(out.links, LinkUse{m.bb, None})
			out.lat += m.bb.Latency
		}
		if l := m.private[b]; l != nil {
			out.links = append(out.links, LinkUse{l, Down})
			out.lat += l.Latency
		}
		return out, true
	}
}

type asModelRoute struct {
	gwSrc, gwDst string
	declaredRoute
}

// randomRoutingPlatform builds a root AS over 2-4 child ASes of random
// routing kinds and declares random routes, recording each declaration.
// With interleaved, a Full or Floyd AS declares each point's routes to the
// earlier points right after the point itself, and compiles now and then,
// so its route index grows (and is copied) as it fills.
func randomRoutingPlatform(t *testing.T, rng *rand.Rand, interleaved bool) (*Platform, map[string]*modelAS, map[[2]string]asModelRoute) {
	t.Helper()
	p := New("root", RoutingFull)
	root := p.Root()
	nl := 0
	newLink := func(as *AS) *Link {
		nl++
		pol := []SharingPolicy{Shared, FullDuplex, Fatpipe}[rng.Intn(3)]
		l, err := as.AddLink(fmt.Sprintf("l%03d", nl), 1e8+rng.Float64()*1e9, 1e-5+rng.Float64()*1e-3, pol)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	randLinks := func(pool []*Link, n int) []LinkUse {
		out := make([]LinkUse, n)
		for i := range out {
			out[i] = LinkUse{pool[rng.Intn(len(pool))], []Direction{Up, Down, None}[rng.Intn(3)]}
		}
		return out
	}
	// declarePair declares a->b and b->a as one symmetric route, as two
	// one-way routes, or (when partial) as a->b alone.
	declarePair := func(m *modelAS, a, b string, pool []*Link, maxLen int, partial bool) {
		fwd := randLinks(pool, 1+rng.Intn(maxLen))
		mode := rng.Intn(3)
		if mode == 2 && !partial {
			mode = 0
		}
		if err := m.as.AddRoute(a, b, fwd, mode == 0); err != nil {
			t.Fatal(err)
		}
		m.routes[[2]string{a, b}] = recordRoute(fwd)
		switch mode {
		case 0:
			m.routes[[2]string{b, a}] = recordRoute(fwd).reversed()
		case 1:
			rev := randLinks(pool, 1+rng.Intn(maxLen))
			if err := m.as.AddRoute(b, a, rev, false); err != nil {
				t.Fatal(err)
			}
			m.routes[[2]string{b, a}] = recordRoute(rev)
		}
	}

	models := make(map[string]*modelAS)
	var childIDs []string
	for ci := 0; ci < 2+rng.Intn(3); ci++ {
		kind := []RoutingKind{RoutingFull, RoutingFloyd, RoutingCluster}[rng.Intn(3)]
		id := fmt.Sprintf("AS_%d", ci)
		as, err := root.AddAS(id, kind)
		if err != nil {
			t.Fatal(err)
		}
		m := &modelAS{as: as, gw: fmt.Sprintf("gw%d", ci), routes: make(map[[2]string]declaredRoute)}
		// The routers (the gateway first) precede the hosts.
		names := []string{m.gw}
		if kind == RoutingFloyd {
			for r := 0; r < rng.Intn(3); r++ {
				names = append(names, fmt.Sprintf("r%d-%d", ci, r))
			}
		}
		routers := len(names)
		for h := 0; h < 2+rng.Intn(4); h++ {
			names = append(names, fmt.Sprintf("h%d-%d", ci, h))
		}
		addPoint := func(i int) {
			var err error
			if i < routers {
				_, err = as.AddRouter(names[i])
			} else {
				_, err = as.AddHost(names[i], 1e9)
			}
			if err != nil {
				t.Fatal(err)
			}
			m.points = append(m.points, names[i])
		}
		interleave := interleaved && kind != RoutingCluster
		if !interleave {
			for i := range names {
				addPoint(i)
			}
		}
		// grow adds point i, then has declare(i) declare its routes to
		// the earlier points, compiling now and then.
		grow := func(declare func(i int)) {
			for i := range names {
				addPoint(i)
				declare(i)
				if rng.Intn(3) == 0 {
					p.Snapshot()
				}
			}
		}
		switch kind {
		case RoutingFull:
			var pool []*Link
			for i := 0; i < 3+rng.Intn(5); i++ {
				pool = append(pool, newLink(as))
			}
			pair := func(a, b string) {
				if a == m.gw {
					// gw -> host always exists; host -> gw now and then
					// does not, so some cross-AS heads are missing.
					declarePair(m, a, b, pool, 3, rng.Intn(10) == 0)
					return
				}
				if rng.Intn(6) != 0 {
					declarePair(m, a, b, pool, 4, true)
				}
			}
			if interleave {
				grow(func(i int) {
					for _, a := range names[:i] {
						pair(a, names[i])
					}
				})
				break
			}
			for i, a := range m.points {
				for _, b := range m.points[i+1:] {
					pair(a, b)
				}
			}
		case RoutingFloyd:
			m.treeParent = make(map[string]string)
			var pool []*Link
			for i := 0; i < 3+rng.Intn(5); i++ {
				pool = append(pool, newLink(as))
			}
			edge := func(i int) {
				parent := m.points[rng.Intn(i)]
				m.treeParent[m.points[i]] = parent
				declarePair(m, parent, m.points[i], pool, 2, false)
			}
			if interleave {
				grow(func(i int) {
					if i > 0 {
						edge(i)
					}
				})
				break
			}
			for i := 1; i < len(m.points); i++ {
				edge(i)
			}
		case RoutingCluster:
			var bb *Link
			if rng.Intn(2) == 0 {
				bb = newLink(as)
			}
			if err := as.SetClusterTopology(m.gw, 1e8, 1e-5+rng.Float64()*1e-4, Shared, bb); err != nil {
				t.Fatal(err)
			}
			m.bb = bb
			m.private = make(map[string]*Link)
			for _, h := range m.points[1:] {
				m.private[h] = p.Link(h + "_link")
			}
		}
		models[id] = m
		childIDs = append(childIDs, id)
	}

	// AS routes between the children, through their gateways.
	asRoutes := make(map[[2]string]asModelRoute)
	var pool []*Link
	for i := 0; i < 2+rng.Intn(4); i++ {
		pool = append(pool, newLink(root))
	}
	for i, a := range childIDs {
		for _, b := range childIDs[i+1:] {
			ga, gb := models[a].gw, models[b].gw
			fwd := randLinks(pool, 1+rng.Intn(3))
			switch rng.Intn(4) {
			case 0: // symmetric
				if err := root.AddASRoute(a, ga, b, gb, fwd, true); err != nil {
					t.Fatal(err)
				}
				asRoutes[[2]string{a, b}] = asModelRoute{ga, gb, recordRoute(fwd)}
				asRoutes[[2]string{b, a}] = asModelRoute{gb, ga, recordRoute(fwd).reversed()}
			case 1: // two one-way routes
				rev := randLinks(pool, 1+rng.Intn(3))
				if err := root.AddASRoute(a, ga, b, gb, fwd, false); err != nil {
					t.Fatal(err)
				}
				if err := root.AddASRoute(b, gb, a, ga, rev, false); err != nil {
					t.Fatal(err)
				}
				asRoutes[[2]string{a, b}] = asModelRoute{ga, gb, recordRoute(fwd)}
				asRoutes[[2]string{b, a}] = asModelRoute{gb, ga, recordRoute(rev)}
			case 2: // one direction only
				if err := root.AddASRoute(b, gb, a, ga, fwd, false); err != nil {
					t.Fatal(err)
				}
				asRoutes[[2]string{b, a}] = asModelRoute{gb, ga, recordRoute(fwd)}
			default: // no AS route
			}
		}
	}
	return p, models, asRoutes
}

// TestRoutesMatchDeclarations builds random Full/Floyd/Cluster platforms
// with symmetric and one-way routes, Up/Down/None traversals and distinct
// non-zero latencies (so the summation order shows in the bits), and
// checks RouteBetween and Snapshot.Route for every endpoint pair against
// the test's own record of what it declared — not against each other, so
// a defect shared by the builder and the compiled tables cannot hide.
// The interleaved mode declares points after routes, so the route index
// regrows under compiled snapshots.
func TestRoutesMatchDeclarations(t *testing.T) {
	t.Run("points-first", func(t *testing.T) { checkRoutesMatchDeclarations(t, false) })
	t.Run("interleaved", func(t *testing.T) { checkRoutesMatchDeclarations(t, true) })
}

func checkRoutesMatchDeclarations(t *testing.T, interleaved bool) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, models, asRoutes := randomRoutingPlatform(t, rng, interleaved)
		s := p.Snapshot()

		owner := make(map[string]string)
		var points []string
		for id, m := range models {
			for _, pt := range m.points {
				owner[pt] = id
				points = append(points, pt)
			}
		}
		expect := func(a, b string) (declaredRoute, bool) {
			ma, mb := models[owner[a]], models[owner[b]]
			if ma == mb {
				return ma.local(a, b)
			}
			ar, ok := asRoutes[[2]string{owner[a], owner[b]}]
			if !ok {
				return declaredRoute{}, false
			}
			var out declaredRoute
			if a != ar.gwSrc {
				head, ok := ma.local(a, ar.gwSrc)
				if !ok {
					return declaredRoute{}, false
				}
				out.links = append(out.links, head.links...)
				out.lat += head.lat
			}
			out.links = append(out.links, ar.links...)
			out.lat += ar.lat
			if b != ar.gwDst {
				tail, ok := mb.local(ar.gwDst, b)
				if !ok {
					return declaredRoute{}, false
				}
				out.links = append(out.links, tail.links...)
				out.lat += tail.lat
			}
			return out, true
		}

		checked := 0
		for _, a := range points {
			for _, b := range points {
				if a == b {
					continue
				}
				want, ok := expect(a, b)
				got, errB := p.RouteBetween(a, b)
				cr, errS := s.Route(a, b)
				if !ok {
					if errB == nil || errS == nil {
						t.Fatalf("seed %d %s->%s: nothing declared, yet RouteBetween err=%v, Snapshot err=%v", seed, a, b, errB, errS)
					}
					continue
				}
				if errB != nil || errS != nil {
					t.Fatalf("seed %d %s->%s: RouteBetween err=%v, Snapshot err=%v", seed, a, b, errB, errS)
				}
				if len(got.Links) != len(want.links) || len(cr.Refs) != len(want.links) {
					t.Fatalf("seed %d %s->%s: want %d links, RouteBetween %d, Snapshot %d", seed, a, b, len(want.links), len(got.Links), len(cr.Refs))
				}
				for i, u := range want.links {
					if got.Links[i] != u {
						t.Fatalf("seed %d %s->%s hop %d: RouteBetween %s:%v, want %s:%v", seed, a, b, i, got.Links[i].Link.ID, got.Links[i].Direction, u.Link.ID, u.Direction)
					}
					if ref := cr.Refs[i]; s.LinkName(ref.LinkIndex()) != u.Link.ID || ref.Direction() != u.Direction {
						t.Fatalf("seed %d %s->%s hop %d: Snapshot %s:%v, want %s:%v", seed, a, b, i, s.LinkName(ref.LinkIndex()), ref.Direction(), u.Link.ID, u.Direction)
					}
				}
				wb := math.Float64bits(want.lat)
				if math.Float64bits(got.Latency) != wb || math.Float64bits(cr.Latency) != wb {
					t.Fatalf("seed %d %s->%s: latency want %v, RouteBetween %v, Snapshot %v", seed, a, b, want.lat, got.Latency, cr.Latency)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("seed %d: no route resolved", seed)
		}
	}
}
