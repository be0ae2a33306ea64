package platform

import (
	"fmt"
	"maps"
	"math"
	"testing"
)

// TestDeclarationAfterCompileIsInvisibleToSnapshot pins copy-on-write of
// the route index: a compiled snapshot shares the builder's index, so a
// declaration after the compile must land in a copy, both when the index
// keeps its size and when new points make it grow.
func TestDeclarationAfterCompileIsInvisibleToSnapshot(t *testing.T) {
	p := New("root", RoutingFull)
	root := p.Root()
	for i := 0; i < 4; i++ {
		if _, err := root.AddHost(fmt.Sprintf("h%d", i), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	l, err := root.AddLink("l", 1e9, 1e-4, Shared)
	if err != nil {
		t.Fatal(err)
	}
	route := []LinkUse{{l, Up}}
	declare := func(a, b string) {
		t.Helper()
		if err := root.AddRoute(a, b, route, true); err != nil {
			t.Fatal(err)
		}
	}
	resolves := func(s *Snapshot, a, b string) bool {
		_, err := s.Route(a, b)
		return err == nil
	}
	declare("h0", "h1")

	// (a) Between points the compiled index already covers.
	old := p.Snapshot()
	declare("h2", "h3")
	if resolves(old, "h2", "h3") || resolves(old, "h3", "h2") {
		t.Fatal("(a) a snapshot resolves a route declared after its compile")
	}
	if !resolves(old, "h0", "h1") {
		t.Fatal("(a) the old snapshot lost a route declared before its compile")
	}
	fresh := p.Snapshot()
	for _, pr := range [][2]string{{"h0", "h1"}, {"h1", "h0"}, {"h2", "h3"}, {"h3", "h2"}} {
		if !resolves(fresh, pr[0], pr[1]) {
			t.Fatalf("(a) a fresh snapshot does not resolve %s->%s", pr[0], pr[1])
		}
	}

	// (b) After new points force the index to grow.
	for i := 4; i < 6; i++ {
		if _, err := root.AddHost(fmt.Sprintf("h%d", i), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	old = p.Snapshot()
	declare("h5", "h2")
	if resolves(old, "h5", "h2") || resolves(old, "h2", "h5") {
		t.Fatal("(b) a snapshot resolves a route declared after its compile")
	}
	fresh = p.Snapshot()
	for _, pr := range [][2]string{{"h0", "h1"}, {"h1", "h0"}, {"h2", "h3"}, {"h3", "h2"}, {"h5", "h2"}, {"h2", "h5"}} {
		if !resolves(fresh, pr[0], pr[1]) {
			t.Fatalf("(b) a fresh snapshot does not resolve %s->%s", pr[0], pr[1])
		}
	}
	if resolves(fresh, "h4", "h0") {
		t.Fatal("(b) a fresh snapshot resolves an undeclared route")
	}
}

// routeIndexModel is the route table's former representation, kept as the
// oracle of FuzzRouteIndex: keys maps packPair(src, dst) to record<<1 |
// reversed, recs holds each record's declared links, and pairs lists the
// keys in declaration order.
type routeIndexModel struct {
	keys  map[uint64]uint32
	recs  [][]LinkUse
	pairs []uint64
}

// FuzzRouteIndex drives one Full or Floyd AS through random interleaved
// point and route declarations (symmetric and one-way, duplicates, taken
// reverses) and compiles, then checks every ordered pair of the builder's
// table and of every snapshot compiled on the way against the map model
// frozen at that point.
func FuzzRouteIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 0, 1, 0, 6, 11, 2, 3, 1, 7, 0})
	f.Add([]byte{1, 0, 2, 8, 3, 0, 1, 0, 6, 0, 19, 2, 0, 1, 6, 4, 5, 1, 0})
	f.Add([]byte{0, 0, 0, 6, 3, 0, 1, 0, 3, 0, 1, 0, 11, 1, 0, 0, 7, 0, 6, 0, 0, 3, 3, 0, 2, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 || len(script) > 512 {
			return
		}
		checkRouteIndexScript(t, script)
	})
}

func checkRouteIndexScript(t *testing.T, script []byte) {
	routing := []RoutingKind{RoutingFull, RoutingFloyd}[script[0]&1]
	p := New("root", routing)
	as := p.Root()
	var pool []*Link
	for i := 0; i < 4; i++ {
		l, err := as.AddLink(fmt.Sprintf("l%d", i), 1e9, float64(i+1)*1.1e-5, Shared)
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, l)
	}
	var names []string
	m := routeIndexModel{keys: make(map[uint64]uint32)}
	type compiledAt struct {
		s    *Snapshot
		keys map[uint64]uint32
	}
	var snaps []compiledAt

	pos := 1
	next := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	declare := func(a, b int, sym bool) {
		links := make([]LinkUse, 1+next()%3)
		for i := range links {
			c := next()
			links[i] = LinkUse{pool[c%len(pool)], Direction(c / len(pool) % 3)}
		}
		err := as.AddRoute(names[a], names[b], links, sym)
		fwd, rev := packPair(int32(a), int32(b)), packPair(int32(b), int32(a))
		_, taken := m.keys[fwd]
		_, revTaken := m.keys[rev]
		if want := a != b && !taken && !(sym && revTaken); (err == nil) != want {
			t.Fatalf("AddRoute(%s, %s, sym=%v): err=%v, model accepts=%v", names[a], names[b], sym, err, want)
		}
		if err != nil {
			return
		}
		rec := uint32(len(m.recs)) << 1
		m.recs = append(m.recs, links)
		m.keys[fwd] = rec
		m.pairs = append(m.pairs, fwd)
		if sym {
			m.keys[rev] = rec | 1
			m.pairs = append(m.pairs, rev)
		}
	}
	for pos < len(script) {
		op := next()
		switch op % 8 {
		case 0, 1, 2:
			if len(names) == 64 {
				continue
			}
			name := fmt.Sprintf("p%d", len(names))
			var err error
			if op%8 == 2 {
				_, err = as.AddRouter(name)
			} else {
				_, err = as.AddHost(name, 1e9)
			}
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		case 3, 4, 5:
			if len(names) > 0 {
				declare(next()%len(names), next()%len(names), op&8 != 0)
			}
		case 6:
			snaps = append(snaps, compiledAt{p.Snapshot(), maps.Clone(m.keys)})
		case 7: // declare the reverse of a declared route
			if len(m.pairs) > 0 {
				key := m.pairs[next()%len(m.pairs)]
				declare(int(uint32(key)), int(key>>32), op&8 != 0)
			}
		}
	}

	// check compares rt with the model keys over every ordered pair;
	// linkName renders an arena reference as the link's name.
	check := func(who string, rt *routeTable, keys map[uint64]uint32, linkName func(LinkRef) string) {
		for a := range names {
			for b := range names {
				e := rt.entry(int32(a), int32(b))
				v, ok := keys[packPair(int32(a), int32(b))]
				if !ok {
					if e != 0 {
						t.Fatalf("%s: %s->%s undeclared, index entry %#x", who, names[a], names[b], e)
					}
					continue
				}
				if e == 0 || e>>1-1 != v>>1 || e&1 != v&1 {
					t.Fatalf("%s: %s->%s index entry %#x, model record %d reversed %d", who, names[a], names[b], e, v>>1, v&1)
				}
				want := m.recs[v>>1]
				if v&1 == 1 {
					want = (declaredRoute{links: want}).reversed().links
				}
				refs, lat, _ := rt.appendTo(nil, int32(a), int32(b))
				wantLat := recordRoute(m.recs[v>>1]).lat
				if len(refs) != len(want) || math.Float64bits(lat) != math.Float64bits(wantLat) {
					t.Fatalf("%s: %s->%s %d links latency %v, want %d links latency %v", who, names[a], names[b], len(refs), lat, len(want), wantLat)
				}
				for i, u := range want {
					if linkName(refs[i]) != u.Link.ID || refs[i].Direction() != u.Direction {
						t.Fatalf("%s: %s->%s hop %d is %s:%v, want %s:%v", who, names[a], names[b], i, linkName(refs[i]), refs[i].Direction(), u.Link.ID, u.Direction)
					}
				}
			}
		}
	}
	snaps = append(snaps, compiledAt{p.Snapshot(), m.keys})
	check("builder", &as.routes, m.keys, func(r LinkRef) string { return p.linkList[r.LinkIndex()].ID })
	for i, c := range snaps {
		check(fmt.Sprintf("snapshot %d", i), &c.s.topo.ases[0].routes, c.keys, func(r LinkRef) string { return c.s.LinkName(r.LinkIndex()) })
	}
}
