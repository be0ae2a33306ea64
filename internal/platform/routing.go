package platform

import (
	"fmt"
	"math"
	"sort"
)

// RouteBetween resolves the end-to-end route between two hosts (or
// routers) anywhere on the platform, walking the AS hierarchy exactly the
// way SimGrid's hierarchical routing does:
//
//  1. find the deepest common ancestor AS of src and dst;
//  2. inside that AS, resolve the local route between the two netpoints
//     representing src and dst (the points themselves if local, their
//     enclosing child ASes otherwise);
//  3. when an endpoint is a child AS, recurse from the endpoint to that
//     AS's gateway for the chosen AS-level route, and splice.
//
// Nothing is memoized: every call builds a fresh Route. This is the
// builder's reference resolver (Validate, ResolveAllHostPairs, and the
// tests Snapshot.Route is checked against); forecasts resolve through the
// compiled snapshot. Concurrent calls are safe but serialized, since a
// resolution may build an AS's Floyd table.
func (p *Platform) RouteBetween(src, dst string) (Route, error) {
	if src == dst {
		return Route{}, fmt.Errorf("platform: route from %q to itself", src)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	srcAS, err := p.asOf(src)
	if err != nil {
		return Route{}, err
	}
	dstAS, err := p.asOf(dst)
	if err != nil {
		return Route{}, err
	}
	return p.resolve(src, srcAS, dst, dstAS)
}

// asOf returns the AS directly containing the named host or router.
func (p *Platform) asOf(name string) (*AS, error) {
	if h, ok := p.hosts[name]; ok {
		return h.AS, nil
	}
	if r, ok := p.routers[name]; ok {
		return r.AS, nil
	}
	return nil, fmt.Errorf("platform: unknown endpoint %q", name)
}

// resolve computes the route between netpoints located in srcAS and dstAS.
func (p *Platform) resolve(src string, srcAS *AS, dst string, dstAS *AS) (Route, error) {
	if srcAS == dstAS {
		return srcAS.localRoute(src, dst)
	}

	// Find deepest common ancestor and the child branches under it.
	sChain := srcAS.ancestry()
	dChain := dstAS.ancestry()
	common := 0
	for common < len(sChain) && common < len(dChain) && sChain[common] == dChain[common] {
		common++
	}
	if common == 0 {
		return Route{}, fmt.Errorf("platform: %q and %q share no ancestor AS", src, dst)
	}
	ancestor := sChain[common-1]

	// Netpoint names representing src and dst inside the ancestor.
	srcPoint, dstPoint := src, dst
	var srcChild, dstChild *AS
	if common < len(sChain) {
		srcChild = sChain[common]
		srcPoint = srcChild.ID
	}
	if common < len(dChain) {
		dstChild = dChain[common]
		dstPoint = dstChild.ID
	}

	if srcChild == nil && dstChild == nil {
		// Both directly in ancestor — handled by srcAS == dstAS above.
		return ancestor.localRoute(src, dst)
	}

	ar, ok := ancestor.asRoutes[pairKey{srcPoint, dstPoint}]
	if !ok {
		return Route{}, fmt.Errorf("platform: no ASroute %s->%s in AS %q (for %s->%s)",
			srcPoint, dstPoint, ancestor.ID, src, dst)
	}

	middle := Route{Links: ar.links, Latency: ar.latency}

	var head, tail Route
	var err error
	if srcChild != nil && src != ar.gwSrc {
		gwAS, gerr := p.asOf(ar.gwSrc)
		if gerr != nil {
			return Route{}, fmt.Errorf("platform: gateway %q of ASroute %s->%s: %v", ar.gwSrc, srcPoint, dstPoint, gerr)
		}
		head, err = p.resolve(src, srcAS, ar.gwSrc, gwAS)
		if err != nil {
			return Route{}, err
		}
	}
	if dstChild != nil && dst != ar.gwDst {
		gwAS, gerr := p.asOf(ar.gwDst)
		if gerr != nil {
			return Route{}, fmt.Errorf("platform: gateway %q of ASroute %s->%s: %v", ar.gwDst, srcPoint, dstPoint, gerr)
		}
		tail, err = p.resolve(ar.gwDst, gwAS, dst, dstAS)
		if err != nil {
			return Route{}, err
		}
	}
	return concat(head, middle, tail), nil
}

// localRoute resolves a route between two netpoints of this AS according
// to its routing kind.
func (as *AS) localRoute(src, dst string) (Route, error) {
	switch as.Routing {
	case RoutingFull:
		si, sok := as.ords[src]
		di, dok := as.ords[dst]
		refs, lat, ok := as.routes.appendTo(nil, si, di)
		if !sok || !dok || !ok {
			return Route{}, fmt.Errorf("platform: no route %s->%s in Full AS %q", src, dst, as.ID)
		}
		return as.platform.expand(refs, lat), nil
	case RoutingFloyd:
		return as.floydRoute(src, dst)
	case RoutingCluster:
		return as.clusterRoute(src, dst)
	default:
		return Route{}, fmt.Errorf("platform: AS %q has unsupported routing", as.ID)
	}
}

// expand turns traversals addressed by link ordinal into a Route.
func (p *Platform) expand(refs []LinkRef, lat float64) Route {
	r := Route{Latency: lat}
	for _, ref := range refs {
		r.Links = append(r.Links, LinkUse{Link: p.linkList[ref.LinkIndex()], Direction: ref.Direction()})
	}
	return r
}

// clusterRoute computes the implicit route of a Cluster AS.
func (as *AS) clusterRoute(src, dst string) (Route, error) {
	var r Route
	up, isHostSrc := as.clusterPrivate[src]
	if isHostSrc {
		r.Links = append(r.Links, LinkUse{Link: up, Direction: Up})
		r.Latency += up.Latency
	} else if src != as.clusterRouter {
		return Route{}, fmt.Errorf("platform: %q not in cluster AS %q", src, as.ID)
	}
	if as.clusterBB != nil {
		r.Links = append(r.Links, LinkUse{Link: as.clusterBB, Direction: None})
		r.Latency += as.clusterBB.Latency
	}
	down, isHostDst := as.clusterPrivate[dst]
	if isHostDst {
		r.Links = append(r.Links, LinkUse{Link: down, Direction: Down})
		r.Latency += down.Latency
	} else if dst != as.clusterRouter {
		return Route{}, fmt.Errorf("platform: %q not in cluster AS %q", dst, as.ID)
	}
	return r, nil
}

// floydRoute computes shortest paths (by latency, then hop count) over the
// declared edges, building the all-pairs table on first use.
func (as *AS) floydRoute(src, dst string) (Route, error) {
	if !as.floydBuilt {
		as.buildFloyd()
	}
	si, ok := as.ords[src]
	if !ok {
		return Route{}, fmt.Errorf("platform: %q unknown in Floyd AS %q", src, as.ID)
	}
	di, ok := as.ords[dst]
	if !ok {
		return Route{}, fmt.Errorf("platform: %q unknown in Floyd AS %q", dst, as.ID)
	}
	refs, lat, ok := as.routes.floydPath(nil, as.floydNext, int32(len(as.points)), si, di)
	if !ok {
		return Route{}, fmt.Errorf("platform: no Floyd path %s->%s in AS %q", src, dst, as.ID)
	}
	return as.platform.expand(refs, lat), nil
}

// buildFloyd runs Floyd-Warshall over the declared edges on dense n×n
// matrices indexed by point ordinal — no map hashing in the O(n³)
// relaxation. Tie-breaking is identical to the historical map-based
// implementation (see TestBuildFloydMatchesMapReference): intermediate
// points are taken in sorted-name order, an unreachable pair behaves as
// +Inf, and the same epsilons apply. (Within one intermediate's pass no
// entry it reads changes, so only the intermediates' order matters.)
func (as *AS) buildFloyd() {
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
	as.floydNext = next
	as.floydBuilt = true
}

// RouteStats summarizes resolved-route storage, used by the flat-vs-
// hierarchical ablation benches.
type RouteStats struct {
	Pairs     int // resolved pairs
	LinkRefs  int // total link references stored
	AvgLength float64
}

// ResolveAllHostPairs resolves every ordered host pair and reports storage
// statistics. With hierarchical routing this is also a whole-platform
// validation pass (the paper's point: it was impossible on flat
// Grid'5000 before ASes were introduced).
func (p *Platform) ResolveAllHostPairs() (RouteStats, error) {
	hosts := p.Hosts()
	var st RouteStats
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			r, err := p.RouteBetween(a.ID, b.ID)
			if err != nil {
				return st, err
			}
			st.Pairs++
			st.LinkRefs += len(r.Links)
		}
	}
	if st.Pairs > 0 {
		st.AvgLength = float64(st.LinkRefs) / float64(st.Pairs)
	}
	return st, nil
}

// Validate checks structural invariants: every declared route references
// links known to the platform, link parameters are sane, AS gateways
// exist, and, for every pair among a sample of hosts, a route resolves.
// sampleLimit bounds the number of hosts included in the pairwise check
// (0 means all hosts).
func (p *Platform) Validate(sampleLimit int) error {
	for _, l := range p.links {
		if l.Bandwidth <= 0 || math.IsNaN(l.Bandwidth) || l.Latency < 0 {
			return fmt.Errorf("platform: link %q has invalid parameters", l.ID)
		}
	}
	var walk func(as *AS) error
	walk = func(as *AS) error {
		for key, ar := range as.asRoutes {
			if _, err := p.asOf(ar.gwSrc); err != nil {
				return fmt.Errorf("ASroute %s->%s in %q: bad gw_src: %v", key.src, key.dst, as.ID, err)
			}
			if _, err := p.asOf(ar.gwDst); err != nil {
				return fmt.Errorf("ASroute %s->%s in %q: bad gw_dst: %v", key.src, key.dst, as.ID, err)
			}
		}
		for _, c := range as.Children() {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(p.root); err != nil {
		return err
	}
	hosts := p.Hosts()
	if sampleLimit > 0 && len(hosts) > sampleLimit {
		// Stride-sample across the whole sorted host list. Taking the
		// first N names would land entirely inside one cluster on
		// Grid'5000-style platforms (names sort by cluster), silently
		// skipping every inter-cluster and inter-site route.
		sampled := make([]*Host, 0, sampleLimit)
		for i := 0; i < sampleLimit; i++ {
			sampled = append(sampled, hosts[i*len(hosts)/sampleLimit])
		}
		hosts = sampled
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if _, err := p.RouteBetween(a.ID, b.ID); err != nil {
				return err
			}
		}
	}
	return nil
}
