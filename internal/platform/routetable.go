package platform

import (
	"math"
	"sort"
)

// routeTable holds the routes declared inside one AS in index form, the
// form the compiled snapshot reads them in. Each declaration is one
// record: a slice of a pointer-free arena of LinkRefs, plus its latency
// summed over the links in declared order. Records are found through a
// dense n×n index over the endpoints' point ordinals. A symmetric
// declaration is stored once: the reverse entry points at the same record
// with the reversed bit set and is read backwards with flipped directions,
// and its latency is the forward sum, bit for bit.
//
// The builder's arena addresses links by creation ordinal
// (Platform.linkList); the compiled copy addresses them by compiled link
// index and shares the records and index, which the sealed builder never
// writes again. Both read routes through appendTo.
type routeTable struct {
	refs []LinkRef
	recs []routeRec

	// idx[src*n+dst] is (record index+1)<<1 | reversed, or 0 when src->dst
	// is undeclared. Ordinals at or past n have no routes yet: the index
	// grows to the AS's point count when a declaration names one.
	idx []uint32
	n   int32
}

// routeRec is one declared route: refs[off:off+n] and its latency.
type routeRec struct {
	off, n int32
	lat    float64
}

// entry returns the index entry of src->dst, 0 when undeclared.
func (rt *routeTable) entry(src, dst int32) uint32 {
	if uint32(src) >= uint32(rt.n) || uint32(dst) >= uint32(rt.n) {
		return 0
	}
	return rt.idx[int(src)*int(rt.n)+int(dst)]
}

// add stores the declaration src->dst, and the reverse entry when
// symmetrical. points is the AS's point count, the size the index grows
// to. The caller has checked that neither entry is taken and that every
// link is on the platform.
func (rt *routeTable) add(src, dst int32, links []LinkUse, symmetrical bool, points int32) {
	if max(src, dst) >= rt.n {
		rt.resize(max(points, rt.n))
	}
	rec := routeRec{off: int32(len(rt.refs)), n: int32(len(links))}
	for _, u := range links {
		rt.refs = append(rt.refs, MakeLinkRef(u.Link.ord, u.Direction))
		rec.lat += u.Link.Latency
	}
	e := uint32(len(rt.recs)+1) << 1
	rt.recs = append(rt.recs, rec)
	rt.idx[int(src)*int(rt.n)+int(dst)] = e
	if symmetrical {
		rt.idx[int(dst)*int(rt.n)+int(src)] = e | 1
	}
}

// resize moves the index to a fresh n×n array, row by row.
func (rt *routeTable) resize(n int32) {
	idx := make([]uint32, int(n)*int(n))
	for i := 0; i < int(rt.n); i++ {
		copy(idx[i*int(n):], rt.idx[i*int(rt.n):(i+1)*int(rt.n)])
	}
	rt.idx, rt.n = idx, n
}

// each calls f with every declared pair and its latency, row by row.
func (rt *routeTable) each(f func(src, dst int32, lat float64)) {
	for k, e := range rt.idx {
		if e != 0 {
			f(int32(k/int(rt.n)), int32(k%int(rt.n)), rt.recs[e>>1-1].lat)
		}
	}
}

// appendTo appends the traversals of route src->dst to out and returns
// the extended slice, the route's latency, and whether it is declared.
func (rt *routeTable) appendTo(out []LinkRef, src, dst int32) ([]LinkRef, float64, bool) {
	e := rt.entry(src, dst)
	if e == 0 {
		return out, 0, false
	}
	r := rt.recs[e>>1-1]
	refs := rt.refs[r.off : r.off+r.n]
	if e&1 == 0 {
		return append(out, refs...), r.lat, true
	}
	for i := len(refs) - 1; i >= 0; i-- {
		out = append(out, MakeLinkRef(refs[i].LinkIndex(), refs[i].Direction().Reverse()))
	}
	return out, r.lat, true
}

// floydPath appends the path from si to di that the next-hop matrix next
// (n×n over the same ordinals, -1 when unreachable) selects, splicing the
// declared edges and adding their latencies hop by hop.
func (rt *routeTable) floydPath(out []LinkRef, next []int32, n, si, di int32) ([]LinkRef, float64, bool) {
	var lat float64
	for cur := si; cur != di; {
		hop := next[cur*n+di]
		if hop < 0 {
			return out, 0, false
		}
		var el float64
		out, el, _ = rt.appendTo(out, cur, hop)
		lat += el
		cur = hop
	}
	return out, lat, true
}

// buildFloyd runs Floyd-Warshall over the declared edges on dense n×n
// matrices indexed by point ordinal — no map hashing in the O(n³)
// relaxation. Tie-breaking is identical to the historical map-based
// implementation (see TestBuildFloydMatchesMapReference): intermediate
// points are taken in sorted-name order, an unreachable pair behaves as
// +Inf, and the same epsilons apply. (Within one intermediate's pass no
// entry it reads changes, so only the intermediates' order matters.) It
// returns the flattened len(points)² next-hop matrix, -1 when unreachable.
func (as *AS) buildFloyd() []int32 {
	n := len(as.points)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return as.points[order[a]].name < as.points[order[b]].name })

	dist := make([]float64, n*n)
	next := make([]int32, n*n)
	for i := range dist {
		dist[i] = math.Inf(1)
		next[i] = -1
	}
	as.routes.each(func(si, sj int32, lat float64) {
		// Edge cost: latency with a small per-hop epsilon so that
		// zero-latency platforms still prefer fewer hops.
		i, j := int(si), int(sj)
		if c := lat + 1e-12; c < dist[i*n+j] {
			dist[i*n+j] = c
			next[i*n+j] = sj
		}
	})
	for _, k := range order {
		for i := 0; i < n; i++ {
			dik := dist[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				dkj := dist[k*n+j]
				if math.IsInf(dkj, 1) {
					continue
				}
				if dik+dkj < dist[i*n+j]-1e-15 {
					dist[i*n+j] = dik + dkj
					next[i*n+j] = next[i*n+k]
				}
			}
		}
	}
	return next
}

// compiled returns the table the snapshot reads: the arena re-addressed
// through linkIdx (creation ordinal -> compiled link index) in one linear
// pass, records and index shared with the sealed builder.
func (rt *routeTable) compiled(linkIdx []int32) routeTable {
	refs := make([]LinkRef, len(rt.refs))
	for i, r := range rt.refs {
		refs[i] = MakeLinkRef(linkIdx[r.LinkIndex()], r.Direction())
	}
	return routeTable{refs: refs, recs: rt.recs, idx: rt.idx, n: rt.n}
}

func packPair(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }
