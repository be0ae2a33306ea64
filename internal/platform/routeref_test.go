package platform

import "fmt"

// This file is the reference resolver that Snapshot.Route is tested
// against: the AS walk run on the builder's own tables (string-keyed AS
// routes, the routes declared in each AS, Floyd tables built per
// resolution), memoizing nothing. It shares the route records and their readers
// (appendTo, floydPath) with the snapshot, but none of the compiled
// indices, the route memo or the link re-addressing. Production code
// routes only through Snapshot.Route.

// linkRoute is a resolved end-to-end path in builder form: the ordered
// links it traverses and the sum of their latencies.
type linkRoute struct {
	Links   []LinkUse
	Latency float64
}

// concat returns the concatenation of routes.
func concat(rs ...linkRoute) linkRoute {
	var out linkRoute
	for _, r := range rs {
		out.Links = append(out.Links, r.Links...)
		out.Latency += r.Latency
	}
	return out
}

// refRouteBetween resolves the end-to-end route between two hosts (or
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
// Nothing is memoized: every call builds a fresh route, and only reads
// the builder, so concurrent calls are safe.
func (p *Platform) refRouteBetween(src, dst string) (linkRoute, error) {
	if src == dst {
		return linkRoute{}, fmt.Errorf("platform: route from %q to itself", src)
	}
	srcAS, err := p.asOf(src)
	if err != nil {
		return linkRoute{}, err
	}
	dstAS, err := p.asOf(dst)
	if err != nil {
		return linkRoute{}, err
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
func (p *Platform) resolve(src string, srcAS *AS, dst string, dstAS *AS) (linkRoute, error) {
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
		return linkRoute{}, fmt.Errorf("platform: %q and %q share no ancestor AS", src, dst)
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
		return linkRoute{}, fmt.Errorf("platform: no ASroute %s->%s in AS %q (for %s->%s)",
			srcPoint, dstPoint, ancestor.ID, src, dst)
	}

	middle := linkRoute{Links: ar.links, Latency: ar.latency}

	var head, tail linkRoute
	var err error
	if srcChild != nil && src != ar.gwSrc {
		gwAS, gerr := p.asOf(ar.gwSrc)
		if gerr != nil {
			return linkRoute{}, fmt.Errorf("platform: gateway %q of ASroute %s->%s: %v", ar.gwSrc, srcPoint, dstPoint, gerr)
		}
		head, err = p.resolve(src, srcAS, ar.gwSrc, gwAS)
		if err != nil {
			return linkRoute{}, err
		}
	}
	if dstChild != nil && dst != ar.gwDst {
		gwAS, gerr := p.asOf(ar.gwDst)
		if gerr != nil {
			return linkRoute{}, fmt.Errorf("platform: gateway %q of ASroute %s->%s: %v", ar.gwDst, srcPoint, dstPoint, gerr)
		}
		tail, err = p.resolve(ar.gwDst, gwAS, dst, dstAS)
		if err != nil {
			return linkRoute{}, err
		}
	}
	return concat(head, middle, tail), nil
}

// localRoute resolves a route between two netpoints of this AS according
// to its routing kind.
func (as *AS) localRoute(src, dst string) (linkRoute, error) {
	switch as.Routing {
	case RoutingFull:
		si, sok := as.ords[src]
		di, dok := as.ords[dst]
		refs, lat, ok := as.routes.appendTo(nil, si, di)
		if !sok || !dok || !ok {
			return linkRoute{}, fmt.Errorf("platform: no route %s->%s in Full AS %q", src, dst, as.ID)
		}
		return as.platform.expand(refs, lat), nil
	case RoutingFloyd:
		return as.floydRoute(src, dst)
	case RoutingCluster:
		return as.clusterRoute(src, dst)
	default:
		return linkRoute{}, fmt.Errorf("platform: AS %q has unsupported routing", as.ID)
	}
}

// expand turns traversals addressed by link ordinal into a linkRoute.
func (p *Platform) expand(refs []LinkRef, lat float64) linkRoute {
	r := linkRoute{Latency: lat}
	for _, ref := range refs {
		r.Links = append(r.Links, LinkUse{Link: p.linkList[ref.LinkIndex()], Direction: ref.Direction()})
	}
	return r
}

// clusterRoute computes the implicit route of a Cluster AS.
func (as *AS) clusterRoute(src, dst string) (linkRoute, error) {
	var r linkRoute
	up, isHostSrc := as.clusterPrivate[src]
	if isHostSrc {
		r.Links = append(r.Links, LinkUse{Link: up, Direction: Up})
		r.Latency += up.Latency
	} else if src != as.clusterRouter {
		return linkRoute{}, fmt.Errorf("platform: %q not in cluster AS %q", src, as.ID)
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
		return linkRoute{}, fmt.Errorf("platform: %q not in cluster AS %q", dst, as.ID)
	}
	return r, nil
}

// floydRoute computes shortest paths (by latency, then hop count) over the
// declared edges, building the all-pairs table afresh.
func (as *AS) floydRoute(src, dst string) (linkRoute, error) {
	si, ok := as.ords[src]
	if !ok {
		return linkRoute{}, fmt.Errorf("platform: %q unknown in Floyd AS %q", src, as.ID)
	}
	di, ok := as.ords[dst]
	if !ok {
		return linkRoute{}, fmt.Errorf("platform: %q unknown in Floyd AS %q", dst, as.ID)
	}
	refs, lat, ok := as.routes.floydPath(nil, as.buildFloyd(), int32(len(as.points)), si, di)
	if !ok {
		return linkRoute{}, fmt.Errorf("platform: no Floyd path %s->%s in AS %q", src, dst, as.ID)
	}
	return as.platform.expand(refs, lat), nil
}
