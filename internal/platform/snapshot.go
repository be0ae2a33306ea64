package platform

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the compiled platform layer: the first Snapshot
// call lowers the builder-friendly, string-keyed Platform, once, into an
// immutable Snapshot in which hosts, routers and links carry dense int32
// indices, resolved routes are index slices, and link state
// (bandwidth/latency) lives in flat arrays separate from the topology.
//
// The split mirrors what SimGrid itself converged on to stay scalable
// (Casanova et al., arXiv:1309.1630): a mutable description you build
// once, compiled into a compact read-only routing representation you
// query millions of times. Here the compiled form additionally carries an
// *epoch*: Snapshot.WithLinkState derives a new snapshot by copy-on-write
// of only the link-state pages — topology and resolved routes are shared
// between epochs — so folding a batch of live measurements (NWS/iperf)
// into the forecast picture costs O(changed links), not O(platform).
//
// Concurrency: a Snapshot is immutable once compiled apart from its
// published-route memo; every read — index lookups, link state, warm
// route resolution — is lock-free. A cold route is resolved outside any
// lock and published under one short mutex, so concurrent forecast
// workers never serialize on a route somebody already asked for.

// LinkRef packs one link traversal of a compiled route into an int32: the
// link's dense index shifted left by two bits, or-ed with the traversal
// Direction. Routes held by simulation activities are []LinkRef — three
// words per route instead of a pointer-chasing []LinkUse.
type LinkRef int32

// MakeLinkRef packs a link index and a direction.
func MakeLinkRef(link int32, d Direction) LinkRef {
	return LinkRef(link<<2) | LinkRef(d)
}

// LinkIndex returns the dense link index of the traversal.
func (r LinkRef) LinkIndex() int32 { return int32(r) >> 2 }

// Direction returns the traversal direction.
func (r LinkRef) Direction() Direction { return Direction(r & 3) }

// CompiledRoute is a resolved end-to-end path in index form: the ordered
// link traversals and the sum of their latencies at the base epoch.
// Callers needing the latency under the *current* epoch (after link-state
// updates) go through Snapshot.RouteLatency.
type CompiledRoute struct {
	Refs    []LinkRef
	Latency float64
}

// Link-state pages. Bandwidth and latency are stored in fixed-size pages
// behind a page table; WithLinkState copies the page table (a slice of
// pointers, ~len(links)/64 words) and duplicates only the pages holding
// changed entries, so a measurement batch allocates proportionally to the
// links it touches, never to the platform.
const (
	statePageShift = 6
	statePageSize  = 1 << statePageShift
	statePageMask  = statePageSize - 1
)

type statePage [statePageSize]float64

// snapshotEpochs hands out process-unique epoch numbers. Epochs are never
// reused — across platforms and link-state updates — so an
// epoch number identifies one exact network picture forever. The forecast
// cache keys entries by it instead of pinning platform pointers.
//
// WAL recovery is the one exception to pure counter allocation: a
// restarted pilgrimd restores the epoch ids its predecessor logged (so
// timelines and their accounting come back byte-identical), then raises
// the counter past every restored id with EnsureEpochAtLeast, preserving
// the never-reused invariant for all future allocations. Restored epochs
// must only be served alongside caches built after the restore — the
// standard shape of a process restart.
var snapshotEpochs atomic.Uint64

// AllocateEpoch reserves one process-unique epoch id without building a
// snapshot. Write-ahead logging uses it to know an observation's epoch id
// before the observation is applied (log first, then derive the epoch
// with the pinned id).
func AllocateEpoch() uint64 { return snapshotEpochs.Add(1) }

// EnsureEpochAtLeast raises the process epoch counter so every future
// allocation is strictly greater than n. WAL recovery calls it after
// restoring logged epoch ids.
func EnsureEpochAtLeast(n uint64) {
	for {
		cur := snapshotEpochs.Load()
		if cur >= n || snapshotEpochs.CompareAndSwap(cur, n) {
			return
		}
	}
}

// LinkUpdate revises one link's state in a new epoch, typically from a
// live measurement. Bandwidth is in bytes per second and Latency in
// seconds; Overlay says which of the two take effect.
type LinkUpdate struct {
	Link      string
	Bandwidth float64
	Latency   float64
}

// Overlay is the observation rule, the one place that decides which
// values of a measured revision take effect: a bandwidth > 0 and finite,
// a latency >= 0 and finite. It returns the revision as an overlay of
// link i in which every other value (the -1 "not measured" sentinel, 0,
// NaN, ±Inf) is NaN, "keep the current value"; a measurement therefore
// never fails a link.
func (u LinkUpdate) Overlay(i int32) OverlayLink {
	o := OverlayLink{Link: i, Bandwidth: math.NaN(), Latency: math.NaN()}
	if u.Bandwidth > 0 && !math.IsInf(u.Bandwidth, 0) {
		o.Bandwidth = u.Bandwidth
	}
	if u.Latency >= 0 && !math.IsInf(u.Latency, 0) {
		o.Latency = u.Latency
	}
	return o
}

// Snapshot is one epoch of a compiled platform: shared immutable topology
// plus this epoch's link-state pages. All methods are safe for concurrent
// use and lock-free.
type Snapshot struct {
	topo  *topology
	epoch uint64

	// Current link and host state, paged copy-on-write across epochs.
	bw    []*statePage
	lat   []*statePage
	speed []*statePage

	// latDirty records that some epoch in this snapshot's history revised
	// a latency; when false, route latencies are served straight from the
	// compiled base sums.
	latDirty bool

	// provenance describes how this epoch was derived (a scenario
	// overlay's mutation list); empty for base and observation epochs,
	// whose provenance lives in the Timeline.
	provenance string
}

// topology is the immutable compiled structure shared by all epochs of a
// platform: dense indices, per-AS route tables, the eager route arena and
// the published route memo.
type topology struct {
	hostNames []string
	hostSpeed []float64

	// Endpoints (route sources/destinations): hosts first (endpoint id ==
	// host index), then routers, both in sorted name order.
	pointNames []string
	pointIdx   map[string]int32
	pointAS    []int32 // endpoint id -> owning AS index
	pointOrd   []int32 // endpoint id -> ordinal in its owning AS

	linkNames  []string
	linkIdx    map[string]int32
	linkPolicy []SharingPolicy
	linkBW0    []float64 // base-epoch bandwidth
	linkLat0   []float64 // base-epoch latency

	ases  []snapAS
	arena []LinkRef // shared storage for the AS-level routes' links

	// routes publishes end-to-end resolutions on demand: one row per
	// source endpoint, allocated on the source's first resolution, with
	// one slot per destination holding 1 + the route's index in memo (0:
	// not published yet). A warm read is three atomic loads — row, slot,
	// chunk directory — and two array indexes: no lock, no hashing.
	// Memory: one row costs 4·numPoints pointer-free bytes, paid only for
	// endpoints that actually source traffic.
	routes []atomic.Pointer[routeRow]
	memo   routeMemo
}

// routeRow holds the indices of the published routes out of one source
// endpoint.
type routeRow struct {
	slots []atomic.Uint32
}

// Published routes live in fixed-size chunks of CompiledRoute reached
// through a chunk directory; each route's Refs is a full-capacity window
// of a pointer-free LinkRef chunk. Chunks are never moved or reused, so
// a *CompiledRoute and its Refs stay valid for the topology's lifetime —
// the engine and its callers hold them across requests. Every published
// pair costs 32 bytes plus 4 per link, and the collector marks one object
// per chunk instead of two per route.
const (
	memoChunkShift = 9
	memoChunkSize  = 1 << memoChunkShift
	memoChunkMask  = memoChunkSize - 1
	memoRefChunk   = 8192 // LinkRefs per arena chunk
)

type routeChunk [memoChunkSize]CompiledRoute

// routeMemo stores the published routes. Readers only call at; add runs
// under mu. The directory grows by publishing a longer slice header, so
// a reader still holding an older header indexes only chunks it sees.
type routeMemo struct {
	dir atomic.Pointer[[]*routeChunk]

	mu   sync.Mutex
	n    uint32    // routes published
	refs []LinkRef // unused tail of the current arena chunk
}

// at returns published route i. i must come from a slot load, which
// orders this read after the add that stored the route and its chunk.
func (m *routeMemo) at(i uint32) *CompiledRoute {
	return &(*m.dir.Load())[i>>memoChunkShift][i&memoChunkMask]
}

// add copies a resolved route into the memo and returns its index. The
// caller holds mu and publishes the index to readers afterwards.
func (m *routeMemo) add(refs []LinkRef, lat float64) uint32 {
	i := m.n
	if i&memoChunkMask == 0 {
		var dir []*routeChunk
		if d := m.dir.Load(); d != nil {
			dir = *d
		}
		dir = append(dir, new(routeChunk))
		m.dir.Store(&dir)
	}
	n := len(refs)
	if n > len(m.refs) {
		m.refs = make([]LinkRef, max(memoRefChunk, n))
	}
	r := m.at(i)
	r.Refs, r.Latency = m.refs[:n:n], lat
	copy(r.Refs, refs)
	m.refs = m.refs[n:]
	m.n++
	return i
}

// routeRef is a slice of the shared arena plus the route's base latency.
type routeRef struct {
	off, n int32
	lat    float64
}

// snapASRoute is a compiled AS-level route: gateways as endpoint ids and
// the connecting links in the arena.
type snapASRoute struct {
	gwSrc, gwDst     int32
	gwSrcAS, gwDstAS int32
	links            routeRef
}

// snapAS is the compiled form of one AS. Netpoints are addressed by
// *codes*: endpoints (hosts/routers) use their endpoint id, child ASes
// use numPoints + their AS index — globally unique, so per-AS tables can
// be keyed by packed code pairs without string hashing. Declared routes
// stay keyed by the builder's per-AS ordinals (topology.ordOf maps a code
// to its ordinal).
type snapAS struct {
	id      string
	routing RoutingKind
	code    int32   // this AS's own point code (in its parent's tables)
	ord     int32   // this AS's ordinal in its parent
	chain   []int32 // ancestry as AS indices, root-first, self included

	// Full routing: the declared routes; Floyd routing: the declared
	// one-hop edges, plus the n×n next-hop matrix over ordinals (-1 when
	// unreachable), built eagerly.
	routes routeTable
	fN     int32
	fNext  []int32

	// Cluster routing: per-host private link index, optional backbone
	// link index (-1 none) and gateway router endpoint id (-1 none).
	clPrivate map[int32]int32
	clBB      int32
	clRouter  int32

	// AS-level routes between child points, keyed by packed codes.
	asRoutes map[uint64]snapASRoute
}

// compile lowers the platform into its base-epoch snapshot. It only
// reads the builder: Floyd tables are built here and kept only in the
// snapshot. Snapshot runs it once.
func (p *Platform) compile() *Snapshot {
	t := &topology{}

	// Dense host/link indices in sorted-name order (matching Hosts/Links).
	hostNames := make([]string, 0, len(p.hosts))
	for n := range p.hosts {
		hostNames = append(hostNames, n)
	}
	sort.Strings(hostNames)
	routerNames := make([]string, 0, len(p.routers))
	for n := range p.routers {
		routerNames = append(routerNames, n)
	}
	sort.Strings(routerNames)
	t.hostNames = hostNames
	t.hostSpeed = make([]float64, len(hostNames))
	t.pointNames = make([]string, 0, len(hostNames)+len(routerNames))
	t.pointNames = append(t.pointNames, hostNames...)
	t.pointNames = append(t.pointNames, routerNames...)
	t.pointIdx = make(map[string]int32, len(t.pointNames))
	for i, n := range t.pointNames {
		t.pointIdx[n] = int32(i)
	}
	for i, n := range hostNames {
		t.hostSpeed[i] = p.hosts[n].Speed
	}

	linkNames := make([]string, 0, len(p.links))
	for n := range p.links {
		linkNames = append(linkNames, n)
	}
	sort.Strings(linkNames)
	t.linkNames = linkNames
	t.linkIdx = make(map[string]int32, len(linkNames))
	t.linkPolicy = make([]SharingPolicy, len(linkNames))
	t.linkBW0 = make([]float64, len(linkNames))
	t.linkLat0 = make([]float64, len(linkNames))
	linkOfOrd := make([]int32, len(p.linkList)) // creation ordinal -> compiled index
	for i, n := range linkNames {
		l := p.links[n]
		t.linkIdx[n] = int32(i)
		t.linkPolicy[i] = l.Policy
		t.linkBW0[i] = l.Bandwidth
		t.linkLat0[i] = l.Latency
		linkOfOrd[l.ord] = int32(i)
	}

	// Enumerate ASes depth-first and compile each.
	asIdx := make(map[*AS]int32)
	var collect func(as *AS)
	collect = func(as *AS) {
		asIdx[as] = int32(len(t.ases))
		t.ases = append(t.ases, snapAS{})
		for _, c := range as.Children() {
			collect(c)
		}
	}
	collect(p.root)

	t.pointAS = make([]int32, len(t.pointNames))
	for i, n := range t.pointNames {
		if h, ok := p.hosts[n]; ok {
			t.pointAS[i] = asIdx[h.AS]
		} else {
			t.pointAS[i] = asIdx[p.routers[n].AS]
		}
	}

	numPoints := int32(len(t.pointNames))
	t.pointOrd = make([]int32, numPoints)
	codeOf := func(as *AS, name string) int32 {
		if child, ok := as.children[name]; ok {
			return numPoints + asIdx[child]
		}
		return t.pointIdx[name]
	}

	var compileAS func(as *AS)
	compileAS = func(as *AS) {
		idx := asIdx[as]
		sa := &t.ases[idx]
		sa.id = as.ID
		sa.routing = as.Routing
		sa.code = numPoints + idx
		var chain []int32
		for _, anc := range as.ancestry() {
			chain = append(chain, asIdx[anc])
		}
		sa.chain = chain
		sa.clBB, sa.clRouter = -1, -1

		// The ordinal of every point, so compiled lookups can key the
		// builder's route records by code.
		for o, pt := range as.points {
			if pt.kind == ASPoint {
				t.ases[asIdx[as.children[pt.name]]].ord = int32(o)
			} else {
				t.pointOrd[t.pointIdx[pt.name]] = int32(o)
			}
		}

		pushLinks := func(links []LinkUse, lat float64) routeRef {
			off := int32(len(t.arena))
			for _, u := range links {
				t.arena = append(t.arena, MakeLinkRef(linkOfOrd[u.Link.ord], u.Direction))
			}
			return routeRef{off: off, n: int32(len(links)), lat: lat}
		}

		sa.routes = as.routes.compiled(linkOfOrd)
		switch as.Routing {
		case RoutingFloyd:
			sa.fN = int32(len(as.points))
			sa.fNext = as.buildFloyd()
		case RoutingCluster:
			sa.clPrivate = make(map[int32]int32, len(as.clusterPrivate))
			for host, l := range as.clusterPrivate {
				sa.clPrivate[t.pointIdx[host]] = t.linkIdx[l.ID]
			}
			if as.clusterBB != nil {
				sa.clBB = t.linkIdx[as.clusterBB.ID]
			}
			if as.clusterRouter != "" {
				sa.clRouter = t.pointIdx[as.clusterRouter]
			}
		}

		sa.asRoutes = make(map[uint64]snapASRoute, len(as.asRoutes))
		for k, ar := range as.asRoutes {
			car := snapASRoute{gwSrc: -1, gwDst: -1, links: pushLinks(ar.links, ar.latency)}
			if gi, ok := t.pointIdx[ar.gwSrc]; ok {
				car.gwSrc, car.gwSrcAS = gi, t.pointAS[gi]
			}
			if gi, ok := t.pointIdx[ar.gwDst]; ok {
				car.gwDst, car.gwDstAS = gi, t.pointAS[gi]
			}
			sa.asRoutes[packPair(codeOf(as, k.src), codeOf(as, k.dst))] = car
		}

		for _, c := range as.Children() {
			compileAS(c)
		}
	}
	compileAS(p.root)

	t.routes = make([]atomic.Pointer[routeRow], len(t.pointNames))

	s := &Snapshot{
		topo:  t,
		epoch: snapshotEpochs.Add(1),
		bw:    buildPages(t.linkBW0),
		lat:   buildPages(t.linkLat0),
		speed: buildPages(t.hostSpeed),
	}
	return s
}

// buildPages packs a flat array into state pages.
func buildPages(vals []float64) []*statePage {
	pages := make([]*statePage, (len(vals)+statePageMask)>>statePageShift)
	for pi := range pages {
		pg := new(statePage)
		copy(pg[:], vals[pi<<statePageShift:min((pi+1)<<statePageShift, len(vals))])
		pages[pi] = pg
	}
	return pages
}

// Snapshot returns the platform's base-epoch snapshot. The first call
// compiles the platform and seals the builder: every later declaration is
// refused, so every call returns the same snapshot. Racing first callers
// wait for the one compile. Safe for concurrent use.
func (p *Platform) Snapshot() *Snapshot {
	p.compileOnce.Do(func() { p.snap = p.compile() })
	return p.snap
}

// Epoch returns the process-unique epoch number of this snapshot's
// network picture.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Provenance describes how this epoch was derived: the canonical mutation
// list of the scenario overlay that produced it, or "" for base and
// observation epochs (observation provenance is recorded per Timeline
// entry instead).
func (s *Snapshot) Provenance() string { return s.provenance }

// NumHosts returns the number of hosts.
func (s *Snapshot) NumHosts() int { return len(s.topo.hostNames) }

// NumLinks returns the number of links.
func (s *Snapshot) NumLinks() int { return len(s.topo.linkNames) }

// HostIndex returns the dense index of the named host.
func (s *Snapshot) HostIndex(name string) (int32, bool) {
	i, ok := s.topo.pointIdx[name]
	if !ok || int(i) >= len(s.topo.hostNames) {
		return -1, false
	}
	return i, true
}

// HostName returns the name of host i.
func (s *Snapshot) HostName(i int32) string { return s.topo.hostNames[i] }

// HostSpeed returns the speed (flops) of host i at this epoch. A speed of
// exactly 0 marks the host as failed (see OverlayHost); base epochs carry
// the builder-declared speeds.
func (s *Snapshot) HostSpeed(i int32) float64 {
	return s.speed[i>>statePageShift][i&statePageMask]
}

// HostDown reports whether host i is failed at this epoch (overlay speed
// of exactly 0).
func (s *Snapshot) HostDown(i int32) bool { return s.HostSpeed(i) == 0 }

// LinkDown reports whether link i is failed at this epoch (overlay
// bandwidth of exactly 0; observation epochs can never produce one).
func (s *Snapshot) LinkDown(i int32) bool { return s.LinkBandwidth(i) == 0 }

// LinkIndex returns the dense index of the named link.
func (s *Snapshot) LinkIndex(name string) (int32, bool) {
	i, ok := s.topo.linkIdx[name]
	return i, ok
}

// LinkName returns the name of link i.
func (s *Snapshot) LinkName(i int32) string { return s.topo.linkNames[i] }

// LinkPolicy returns the sharing policy of link i (topology-level: shared
// across epochs).
func (s *Snapshot) LinkPolicy(i int32) SharingPolicy { return s.topo.linkPolicy[i] }

// LinkBandwidth returns link i's bandwidth (bytes/s) at this epoch.
func (s *Snapshot) LinkBandwidth(i int32) float64 {
	return s.bw[i>>statePageShift][i&statePageMask]
}

// LinkLatency returns link i's one-way latency (seconds) at this epoch.
func (s *Snapshot) LinkLatency(i int32) float64 {
	return s.lat[i>>statePageShift][i&statePageMask]
}

// newEpochFrom starts a derived epoch sharing all state pages with the
// receiver.
func (s *Snapshot) newEpochFrom() *Snapshot {
	return &Snapshot{
		topo:     s.topo,
		epoch:    snapshotEpochs.Add(1),
		bw:       append([]*statePage(nil), s.bw...),
		lat:      append([]*statePage(nil), s.lat...),
		speed:    append([]*statePage(nil), s.speed...),
		latDirty: s.latDirty,
	}
}

// cowSet writes val into its page, duplicating the page the first time a
// derivation touches it: a page still shared with the parent is
// recognized by pointer equality against the parent's table.
func cowSet(pages, parent []*statePage, i int32, val float64) {
	pi := i >> statePageShift
	if pages[pi] == parent[pi] {
		pg := *pages[pi]
		pages[pi] = &pg
	}
	pages[pi][i&statePageMask] = val
}

// setLink writes one link revision into the derived epoch ns, whose
// pages are still shared with parent: NaN keeps a value, any other value
// must be non-negative and finite and is set verbatim. It is the only
// writer of link state, shared by ApplyOverlay and WithLinkState.
func (ns *Snapshot) setLink(parent *Snapshot, u OverlayLink) error {
	if u.Link < 0 || u.Link >= int32(len(ns.topo.linkNames)) {
		return fmt.Errorf("platform: link index %d out of range in overlay", u.Link)
	}
	if !math.IsNaN(u.Bandwidth) {
		if u.Bandwidth < 0 || math.IsInf(u.Bandwidth, 0) {
			return fmt.Errorf("platform: invalid overlay bandwidth %v for link %q",
				u.Bandwidth, ns.topo.linkNames[u.Link])
		}
		cowSet(ns.bw, parent.bw, u.Link, u.Bandwidth)
	}
	if !math.IsNaN(u.Latency) {
		if u.Latency < 0 || math.IsInf(u.Latency, 0) {
			return fmt.Errorf("platform: invalid overlay latency %v for link %q",
				u.Latency, ns.topo.linkNames[u.Link])
		}
		if u.Latency != ns.LinkLatency(u.Link) {
			ns.latDirty = true
		}
		cowSet(ns.lat, parent.lat, u.Link, u.Latency)
	}
	return nil
}

// WithLinkState derives a new epoch with the given measured link
// revisions applied, each through the observation rule
// (LinkUpdate.Overlay). Topology, compiled routes and unchanged
// link-state pages are shared with the receiver; only the page table and
// the pages holding changed entries are copied, so the cost is O(changed
// links) regardless of platform size. The receiver is unaffected.
func (s *Snapshot) WithLinkState(updates []LinkUpdate) (*Snapshot, error) {
	ns := s.newEpochFrom()
	for _, u := range updates {
		i, ok := s.topo.linkIdx[u.Link]
		if !ok {
			return nil, fmt.Errorf("platform: unknown link %q in link-state update", u.Link)
		}
		if err := ns.setLink(s, u.Overlay(i)); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// CloneWithEpoch derives a zero-change copy of this snapshot carrying
// the given epoch id: identical link/host state (all pages shared),
// identical topology, the requested identity. WAL recovery uses it to
// pin a freshly compiled base snapshot to the epoch id its predecessor
// process logged. The id must come from a recovered log — reusing a live
// epoch id would alias two pictures in epoch-keyed caches.
func (s *Snapshot) CloneWithEpoch(epoch uint64) *Snapshot {
	ns := s.newEpochFrom()
	ns.epoch = epoch
	return ns
}

// withLinkStateEpoch is WithLinkState with a caller-supplied epoch id —
// the timeline recovery path, which must reproduce the exact ids its
// write-ahead log recorded.
func (s *Snapshot) withLinkStateEpoch(updates []LinkUpdate, epoch uint64) (*Snapshot, error) {
	ns, err := s.WithLinkState(updates)
	if err != nil {
		return nil, err
	}
	ns.epoch = epoch
	return ns, nil
}

// OverlayLink is one link revision of a scenario overlay, addressed by
// dense link index. Unlike LinkUpdate (which LinkUpdate.Overlay maps onto
// this form through what a measurement can report), an overlay states
// hypothetical values explicitly: NaN keeps the current value, any other
// value — zero included, marking the link failed — is set verbatim.
// Negative and infinite values are rejected.
type OverlayLink struct {
	Link      int32
	Bandwidth float64 // bytes/s; NaN keeps, 0 fails the link
	Latency   float64 // seconds; NaN keeps
}

// OverlayHost is one host revision of a scenario overlay: NaN keeps the
// current speed, 0 fails the host, any other positive value is set
// verbatim.
type OverlayHost struct {
	Host  int32
	Speed float64 // flops; NaN keeps, 0 fails the host
}

// ApplyOverlay derives one new epoch with a whole scenario's mutations
// applied in a single batch: every touched bandwidth/latency/host-speed
// page is copied exactly once (copy-on-write against the receiver), the
// derivation allocates one epoch id regardless of how many mutations the
// scenario composed, and the provenance text — the scenario's canonical
// mutation list — is recorded on the epoch for later inspection. The
// receiver is unaffected. Link revisions with values a measurement could
// report produce bit-identical state to chaining the equivalent
// WithLinkState calls by hand; what ApplyOverlay adds is explicit
// failure (zero bandwidth / zero speed), host mutations, and the
// one-epoch batch semantics scenarios need.
func (s *Snapshot) ApplyOverlay(links []OverlayLink, hosts []OverlayHost, provenance string) (*Snapshot, error) {
	ns := s.newEpochFrom()
	ns.provenance = provenance
	for _, u := range links {
		if err := ns.setLink(s, u); err != nil {
			return nil, err
		}
	}
	nh := int32(len(s.topo.hostNames))
	for _, u := range hosts {
		if u.Host < 0 || u.Host >= nh {
			return nil, fmt.Errorf("platform: host index %d out of range in overlay", u.Host)
		}
		if !math.IsNaN(u.Speed) {
			if u.Speed < 0 || math.IsInf(u.Speed, 0) {
				return nil, fmt.Errorf("platform: invalid overlay speed %v for host %q",
					u.Speed, s.topo.hostNames[u.Host])
			}
			cowSet(ns.speed, s.speed, u.Host, u.Speed)
		}
	}
	return ns, nil
}

// RouteLatency returns the route's one-way latency under this epoch's
// link state. While no epoch in the snapshot's history revised a latency
// this is the compiled base sum verbatim; afterwards the per-link deltas
// against the base state are folded in (links back at their base value
// contribute an exact 0), so a round-trip of updates restores the
// original bits.
func (s *Snapshot) RouteLatency(r *CompiledRoute) float64 {
	if !s.latDirty {
		return r.Latency
	}
	lat := r.Latency
	for _, ref := range r.Refs {
		i := ref.LinkIndex()
		lat += s.LinkLatency(i) - s.topo.linkLat0[i]
	}
	return lat
}

// Route resolves the end-to-end route between two hosts (or routers) in
// compiled form. It is the only route resolver outside tests; the test
// oracle refRouteBetween (routeref_test.go) walks the builder's tables the
// same way and must agree bit for bit. Route reads only immutable
// compiled state: warm routes are a lock-free table load, cold ones a
// pure computation published for the next caller. Every caller of
// a pair, in every epoch derived from the same compilation, gets the same
// pointer. The returned route is shared and must not be mutated.
func (s *Snapshot) Route(src, dst string) (*CompiledRoute, error) {
	r, _, _, err := s.RouteEnds(src, dst)
	return r, err
}

// RouteEnds is Route that also returns the endpoints' point ordinals, so a
// caller that needs the hosts too looks each name up once. Hosts come
// first among points: an ordinal below NumHosts is that host's HostIndex,
// a larger one a router's.
func (s *Snapshot) RouteEnds(src, dst string) (*CompiledRoute, int32, int32, error) {
	if src == dst {
		return nil, -1, -1, fmt.Errorf("platform: route from %q to itself", src)
	}
	t := s.topo
	si, ok := t.pointIdx[src]
	if !ok {
		return nil, -1, -1, fmt.Errorf("platform: unknown endpoint %q", src)
	}
	di, ok := t.pointIdx[dst]
	if !ok {
		return nil, -1, -1, fmt.Errorf("platform: unknown endpoint %q", dst)
	}
	r, err := t.route(si, di)
	return r, si, di, err
}

func (t *topology) route(src, dst int32) (*CompiledRoute, error) {
	if row := t.routes[src].Load(); row != nil {
		if i := row.slots[dst].Load(); i != 0 {
			return t.memo.at(i - 1), nil
		}
	}
	var buf [32]LinkRef
	refs, lat, err := t.resolve(src, t.pointAS[src], dst, t.pointAS[dst], buf[:0])
	if err != nil {
		return nil, err
	}
	m := &t.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	row := t.routes[src].Load()
	if row == nil {
		row = &routeRow{slots: make([]atomic.Uint32, len(t.pointNames))}
		t.routes[src].Store(row)
	}
	// Re-check: a concurrent caller may have published the pair while we
	// resolved it, and every caller must get the same pointer.
	if i := row.slots[dst].Load(); i != 0 {
		return m.at(i - 1), nil
	}
	i := m.add(refs, lat)
	row.slots[dst].Store(i + 1)
	return m.at(i), nil
}

// resolve walks the compiled AS tree: find the deepest common ancestor
// AS, look up the AS-level route between the branches, recurse to the
// gateways and splice. Latencies are summed bottom-up (sub-route totals
// first, then concatenation), the association of the test oracle
// refRouteBetween, so the two agree bit for bit. The links are appended
// to refs.
func (t *topology) resolve(src, srcAS int32, dst, dstAS int32, refs []LinkRef) ([]LinkRef, float64, error) {
	if srcAS == dstAS {
		return t.localRoute(srcAS, src, dst, refs)
	}
	sChain := t.ases[srcAS].chain
	dChain := t.ases[dstAS].chain
	common := 0
	for common < len(sChain) && common < len(dChain) && sChain[common] == dChain[common] {
		common++
	}
	if common == 0 {
		return nil, 0, fmt.Errorf("platform: %q and %q share no ancestor AS", t.pointNames[src], t.pointNames[dst])
	}
	ancestor := &t.ases[sChain[common-1]]

	srcPoint, dstPoint := src, dst
	haveSrcChild, haveDstChild := false, false
	if common < len(sChain) {
		srcPoint = t.ases[sChain[common]].code
		haveSrcChild = true
	}
	if common < len(dChain) {
		dstPoint = t.ases[dChain[common]].code
		haveDstChild = true
	}
	if !haveSrcChild && !haveDstChild {
		return t.localRoute(sChain[common-1], src, dst, refs)
	}

	ar, ok := ancestor.asRoutes[packPair(srcPoint, dstPoint)]
	if !ok {
		return nil, 0, fmt.Errorf("platform: no ASroute %s->%s in AS %q (for %s->%s)",
			t.codeName(srcPoint), t.codeName(dstPoint), ancestor.id,
			t.pointNames[src], t.pointNames[dst])
	}

	var lat, sub float64
	var err error
	if haveSrcChild && src != ar.gwSrc {
		if ar.gwSrc < 0 {
			return nil, 0, fmt.Errorf("platform: unresolvable gateway of ASroute %s->%s in AS %q",
				t.codeName(srcPoint), t.codeName(dstPoint), ancestor.id)
		}
		if refs, sub, err = t.resolve(src, srcAS, ar.gwSrc, ar.gwSrcAS, refs); err != nil {
			return nil, 0, err
		}
		lat += sub
	}
	refs = append(refs, t.arena[ar.links.off:ar.links.off+ar.links.n]...)
	lat += ar.links.lat
	if haveDstChild && dst != ar.gwDst {
		if ar.gwDst < 0 {
			return nil, 0, fmt.Errorf("platform: unresolvable gateway of ASroute %s->%s in AS %q",
				t.codeName(srcPoint), t.codeName(dstPoint), ancestor.id)
		}
		if refs, sub, err = t.resolve(ar.gwDst, ar.gwDstAS, dst, dstAS, refs); err != nil {
			return nil, 0, err
		}
		lat += sub
	}
	return refs, lat, nil
}

// codeName renders a point code for error messages.
func (t *topology) codeName(code int32) string {
	if int(code) < len(t.pointNames) {
		return t.pointNames[code]
	}
	return t.ases[code-int32(len(t.pointNames))].id
}

// ordOf returns the ordinal of the point with the given code in the AS
// holding it.
func (t *topology) ordOf(code int32) int32 {
	if int(code) < len(t.pointOrd) {
		return t.pointOrd[code]
	}
	return t.ases[code-int32(len(t.pointOrd))].ord
}

// localRoute resolves a route between two points of one compiled AS.
func (t *topology) localRoute(asI int32, src, dst int32, refs []LinkRef) ([]LinkRef, float64, error) {
	sa := &t.ases[asI]
	var lat float64
	var ok bool
	switch sa.routing {
	case RoutingFull:
		if refs, lat, ok = sa.routes.appendTo(refs, t.ordOf(src), t.ordOf(dst)); !ok {
			return nil, 0, fmt.Errorf("platform: no route %s->%s in Full AS %q",
				t.codeName(src), t.codeName(dst), sa.id)
		}
		return refs, lat, nil
	case RoutingFloyd:
		if refs, lat, ok = sa.routes.floydPath(refs, sa.fNext, sa.fN, t.ordOf(src), t.ordOf(dst)); !ok {
			return nil, 0, fmt.Errorf("platform: no Floyd path %s->%s in AS %q",
				t.codeName(src), t.codeName(dst), sa.id)
		}
		return refs, lat, nil
	case RoutingCluster:
		return t.clusterRoute(sa, src, dst, refs)
	default:
		return nil, 0, fmt.Errorf("platform: AS %q has unsupported routing", sa.id)
	}
}

// clusterRoute synthesizes the implicit route of a Cluster AS, adding
// latencies uplink, backbone, downlink.
func (t *topology) clusterRoute(sa *snapAS, src, dst int32, refs []LinkRef) ([]LinkRef, float64, error) {
	var lat float64
	if up, ok := sa.clPrivate[src]; ok {
		refs = append(refs, MakeLinkRef(up, Up))
		lat += t.linkLat0[up]
	} else if src != sa.clRouter {
		return nil, 0, fmt.Errorf("platform: %q not in cluster AS %q", t.codeName(src), sa.id)
	}
	if sa.clBB >= 0 {
		refs = append(refs, MakeLinkRef(sa.clBB, None))
		lat += t.linkLat0[sa.clBB]
	}
	if down, ok := sa.clPrivate[dst]; ok {
		refs = append(refs, MakeLinkRef(down, Down))
		lat += t.linkLat0[down]
	} else if dst != sa.clRouter {
		return nil, 0, fmt.Errorf("platform: %q not in cluster AS %q", t.codeName(dst), sa.id)
	}
	return refs, lat, nil
}
