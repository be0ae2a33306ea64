package platform

import "maps"

// routeTable holds the routes declared inside one AS in index form, the
// form the compiled snapshot reads them in. Each declaration is one
// record: a slice of a pointer-free arena of LinkRefs, plus its latency
// summed over the links in declared order. Records are keyed by the packed
// ordinal pair of their endpoints. A symmetric declaration is stored once:
// the reverse key points at the same record with the reversed bit set and
// is read backwards with flipped directions, and its latency is the
// forward sum, bit for bit.
//
// The builder's arena addresses links by creation ordinal
// (Platform.linkList); a compiled copy addresses them by compiled link
// index. Both read routes through appendTo.
type routeTable struct {
	refs []LinkRef
	recs []routeRec
	keys map[uint64]uint32 // packPair(src, dst) -> record index<<1 | reversed

	// shared marks keys as also read by a compiled snapshot: the next add
	// copies the map before inserting. Records are shared without a copy,
	// since the builder only ever appends past the length a snapshot holds.
	shared bool
}

// routeRec is one declared route: refs[off:off+n] and its latency.
type routeRec struct {
	off, n int32
	lat    float64
}

func (rt *routeTable) has(src, dst int32) bool {
	_, ok := rt.keys[packPair(src, dst)]
	return ok
}

// add stores the declaration src->dst, and the reverse key when
// symmetrical. The caller has checked that neither key is taken and that
// every link is on the platform.
func (rt *routeTable) add(src, dst int32, links []LinkUse, symmetrical bool) {
	if rt.keys == nil {
		rt.keys = make(map[uint64]uint32)
	} else if rt.shared {
		rt.keys = maps.Clone(rt.keys)
		rt.shared = false
	}
	rec := routeRec{off: int32(len(rt.refs)), n: int32(len(links))}
	for _, u := range links {
		rt.refs = append(rt.refs, MakeLinkRef(u.Link.ord, u.Direction))
		rec.lat += u.Link.Latency
	}
	i := uint32(len(rt.recs)) << 1
	rt.recs = append(rt.recs, rec)
	rt.keys[packPair(src, dst)] = i
	if symmetrical {
		rt.keys[packPair(dst, src)] = i | 1
	}
}

// appendTo appends the traversals of route src->dst to out and returns
// the extended slice, the route's latency, and whether it is declared.
func (rt *routeTable) appendTo(out []LinkRef, src, dst int32) ([]LinkRef, float64, bool) {
	k, ok := rt.keys[packPair(src, dst)]
	if !ok {
		return out, 0, false
	}
	r := rt.recs[k>>1]
	refs := rt.refs[r.off : r.off+r.n]
	if k&1 == 0 {
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

// compiled returns the table a snapshot reads: the arena re-addressed
// through linkIdx (creation ordinal -> compiled link index) in one linear
// pass, records and keys shared with the builder.
func (rt *routeTable) compiled(linkIdx []int32) routeTable {
	refs := make([]LinkRef, len(rt.refs))
	for i, r := range rt.refs {
		refs[i] = MakeLinkRef(linkIdx[r.LinkIndex()], r.Direction())
	}
	rt.shared = true
	return routeTable{refs: refs, recs: rt.recs[:len(rt.recs):len(rt.recs)], keys: rt.keys}
}

func packPair(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

func unpackPair(k uint64) (a, b int32) { return int32(uint32(k >> 32)), int32(uint32(k)) }
