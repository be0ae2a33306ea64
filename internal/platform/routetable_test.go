package platform

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

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
// reverses) and checkpoints, checking every ordered pair of the builder's
// table against the map model at each checkpoint. It then compiles once,
// checks the builder and the snapshot against the final model, and checks
// that a declaration after the compile is refused and changes nothing.
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
	// check compares rt with the model over every ordered pair; linkName
	// renders an arena reference as the link's name.
	check := func(who string, rt *routeTable, linkName func(LinkRef) string) {
		for a := range names {
			for b := range names {
				e := rt.entry(int32(a), int32(b))
				v, ok := m.keys[packPair(int32(a), int32(b))]
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
	builderLink := func(r LinkRef) string { return p.linkList[r.LinkIndex()].ID }
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
			check(fmt.Sprintf("builder at op %d", pos), &as.routes, builderLink)
		case 7: // declare the reverse of a declared route
			if len(m.pairs) > 0 {
				key := m.pairs[next()%len(m.pairs)]
				declare(int(uint32(key)), int(key>>32), op&8 != 0)
			}
		}
	}

	s := p.Snapshot()
	if len(names) >= 2 {
		if err := as.AddRoute(names[0], names[1], []LinkUse{{pool[0], Up}}, false); !errors.Is(err, errSealed) {
			t.Fatalf("AddRoute after the compile: err = %v, want the seal", err)
		}
	}
	if _, err := as.AddHost("late", 1e9); !errors.Is(err, errSealed) {
		t.Fatalf("AddHost after the compile: err = %v, want the seal", err)
	}
	check("builder", &as.routes, builderLink)
	check("snapshot", &s.topo.ases[0].routes, func(r LinkRef) string { return s.LinkName(r.LinkIndex()) })
}
