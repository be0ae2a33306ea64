// Package platform models the simulated computing platform: hosts, network
// links, routers and a hierarchy of autonomous systems (ASes) with
// SimGrid-style hierarchical routing.
//
// The model follows the SimGrid platform description format the paper
// relies on (§IV-A and [16], Bobelin et al., RR-7829): a platform is a tree
// of ASes, each an independent routing unit. Leaf content (hosts, routers,
// links) lives in ASes; routes within an AS connect its netpoints; AS-level
// routes connect sibling ASes through designated gateways. Hierarchical
// routing keeps per-AS route tables small, which is exactly what made
// whole-Grid'5000 simulation tractable for Pilgrim (see
// BenchmarkRoutingHierarchical vs BenchmarkRoutingFlat).
//
// Links carry a nominal bandwidth (bytes/s), a latency (seconds) and a
// sharing policy:
//
//   - Shared: a single half-duplex resource; traffic in both directions
//     competes for the same capacity. This is SimGrid's historical default
//     and what the paper's g5k_test generator emitted for cluster access
//     and aggregation links.
//   - FullDuplex: two independent directed resources (UP and DOWN).
//   - Fatpipe: a rate limit per flow but no sharing between flows
//     (used for over-provisioned backbones in abstracted platforms).
package platform

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SharingPolicy describes how concurrent flows share one link.
type SharingPolicy int

// Sharing policies, in the order SimGrid defines them.
const (
	Shared SharingPolicy = iota
	FullDuplex
	Fatpipe
)

// String returns the SimGrid XML spelling of the policy.
func (p SharingPolicy) String() string {
	switch p {
	case Shared:
		return "SHARED"
	case FullDuplex:
		return "FULLDUPLEX"
	case Fatpipe:
		return "FATPIPE"
	default:
		return fmt.Sprintf("SharingPolicy(%d)", int(p))
	}
}

// ParseSharingPolicy converts the XML spelling back to a SharingPolicy.
func ParseSharingPolicy(s string) (SharingPolicy, error) {
	switch strings.ToUpper(s) {
	case "SHARED", "":
		return Shared, nil
	case "FULLDUPLEX":
		return FullDuplex, nil
	case "FATPIPE":
		return Fatpipe, nil
	default:
		return Shared, fmt.Errorf("platform: unknown sharing policy %q", s)
	}
}

// Direction selects which directed resource of a FullDuplex link a route
// traverses. It is ignored for Shared and Fatpipe links.
type Direction int

// Link traversal directions.
const (
	Up Direction = iota
	Down
	None
)

// String returns the XML spelling of the direction.
func (d Direction) String() string {
	switch d {
	case Up:
		return "UP"
	case Down:
		return "DOWN"
	default:
		return "NONE"
	}
}

// Reverse returns the opposite direction (None stays None).
func (d Direction) Reverse() Direction {
	switch d {
	case Up:
		return Down
	case Down:
		return Up
	default:
		return None
	}
}

// Link is a network link of the platform.
type Link struct {
	ID        string
	Bandwidth float64 // bytes per second, nominal
	Latency   float64 // seconds, one way
	Policy    SharingPolicy

	ord int32 // creation ordinal on its platform: Platform.linkList[ord] is this link
}

// LinkUse is one traversal of a link by a route, with the direction used
// for FullDuplex links.
type LinkUse struct {
	Link      *Link
	Direction Direction
}

// Reverse returns the traversal used by the reverse route.
func (u LinkUse) Reverse() LinkUse {
	return LinkUse{Link: u.Link, Direction: u.Direction.Reverse()}
}

// PointKind discriminates the entities that can be route endpoints inside
// an AS.
type PointKind int

// Netpoint kinds.
const (
	HostPoint PointKind = iota
	RouterPoint
	ASPoint
)

// Host is a compute node. Speed is in flops and is used by the MSG
// execution model; it plays no role in network sharing.
type Host struct {
	ID    string
	Speed float64
	AS    *AS
	// Props carries free-form metadata (cluster name, site...), mirroring
	// SimGrid's <prop> tags; the experiment layer uses it to group nodes.
	Props map[string]string
}

// Prop returns the property value for key, or "" when absent.
func (h *Host) Prop(key string) string {
	if h.Props == nil {
		return ""
	}
	return h.Props[key]
}

// Router is a pure routing netpoint: it terminates no traffic but anchors
// routes and AS gateways.
type Router struct {
	ID string
	AS *AS
}

// RoutingKind selects the intra-AS routing model.
type RoutingKind int

// Routing models. Full stores explicit per-pair routes. Floyd stores
// one-hop edges and computes all-pairs shortest paths (by latency).
// Cluster computes routes implicitly from per-host private links plus an
// optional backbone — O(hosts) storage instead of O(hosts^2).
const (
	RoutingFull RoutingKind = iota
	RoutingFloyd
	RoutingCluster
)

// String returns the XML spelling of the routing kind.
func (k RoutingKind) String() string {
	switch k {
	case RoutingFull:
		return "Full"
	case RoutingFloyd:
		return "Floyd"
	case RoutingCluster:
		return "Cluster"
	default:
		return fmt.Sprintf("RoutingKind(%d)", int(k))
	}
}

// ParseRoutingKind converts the XML spelling back to a RoutingKind.
func ParseRoutingKind(s string) (RoutingKind, error) {
	switch strings.ToLower(s) {
	case "full", "":
		return RoutingFull, nil
	case "floyd":
		return RoutingFloyd, nil
	case "cluster":
		return RoutingCluster, nil
	default:
		return RoutingFull, fmt.Errorf("platform: unknown routing kind %q", s)
	}
}

type pairKey struct{ src, dst string }

// asRoute is a declared route between two child ASes (or from this AS's
// points to a child AS), with the gateways inside each child.
type asRoute struct {
	gwSrc, gwDst string // netpoint names inside the respective child ASes
	links        []LinkUse
	latency      float64
}

// AS is an autonomous system: an independent routing unit holding
// netpoints (hosts, routers, child ASes) and the routes between them.
type AS struct {
	ID      string
	Routing RoutingKind

	parent   *AS
	children map[string]*AS
	childIDs []string // insertion order, for deterministic serialization

	hosts    map[string]*Host
	hostIDs  []string
	routers  map[string]*Router
	routerID []string
	links    map[string]*Link
	linkIDs  []string

	// Everything addressable in this AS — hosts, routers, child ASes — in
	// declaration order: a point's index in points is its ordinal, and
	// route tables are keyed by ordinal pairs.
	ords   map[string]int32
	points []netpoint

	// Declared routes in index form: explicit end-to-end routes under
	// Full routing, one-hop edges under Floyd routing.
	routes routeTable

	// The ordinals of the last declared route's endpoints: AddRoute's
	// guesses at the next declaration's (see lookup).
	lastSrc, lastDst int32

	// Floyd routing: the all-pairs next-hop table over ordinals, built
	// lazily (the flattened len(points)² matrix, -1 when unreachable).
	floydNext  []int32
	floydBuilt bool

	// Cluster routing: per-host private link and optional backbone.
	clusterPrivate map[string]*Link
	clusterBB      *Link
	clusterRouter  string

	// AS-level routes between child ASes, keyed by child AS ids.
	asRoutes map[pairKey]asRoute

	platform *Platform
}

// netpoint is one addressable point of an AS.
type netpoint struct {
	name string
	kind PointKind
}

// Platform is the root of the model plus global indices. Hosts, routers
// and links have platform-unique names (as on Grid'5000, where node names
// embed their site).
//
// The builder declares; the snapshot routes. Building a platform is not
// safe for concurrent use. Routes are resolved only through Snapshot:
// Compile lowers the platform into an immutable integer-indexed form,
// memoized here and invalidated on mutation.
type Platform struct {
	root     *AS
	hosts    map[string]*Host
	routers  map[string]*Router
	links    map[string]*Link
	linkList []*Link // creation order: the link ordinals route tables store

	// mu serializes compiles: compile is the only builder of Floyd
	// tables, and two compiles would otherwise build and store the same
	// AS's table together. Snapshot holds it from its second look at
	// snap to the store, so racing first callers compile once.
	mu sync.Mutex

	// snap memoizes the compiled base-epoch snapshot (see snapshot.go);
	// builders drop it on every mutation via InvalidateRouteCache.
	snap atomic.Pointer[Snapshot]
}

// New creates a platform whose root AS has the given id and routing kind.
func New(rootID string, routing RoutingKind) *Platform {
	p := &Platform{
		hosts:   make(map[string]*Host),
		routers: make(map[string]*Router),
		links:   make(map[string]*Link),
	}
	p.root = newAS(rootID, routing, nil, p)
	return p
}

func newAS(id string, routing RoutingKind, parent *AS, p *Platform) *AS {
	return &AS{
		ID:             id,
		Routing:        routing,
		parent:         parent,
		children:       make(map[string]*AS),
		hosts:          make(map[string]*Host),
		routers:        make(map[string]*Router),
		links:          make(map[string]*Link),
		ords:           make(map[string]int32),
		asRoutes:       make(map[pairKey]asRoute),
		clusterPrivate: make(map[string]*Link),
		platform:       p,
	}
}

// Root returns the root AS.
func (p *Platform) Root() *AS { return p.root }

// Host returns the host with the given name, or nil.
func (p *Platform) Host(name string) *Host { return p.hosts[name] }

// Hosts returns all hosts sorted by name.
func (p *Platform) Hosts() []*Host {
	out := make([]*Host, 0, len(p.hosts))
	for _, h := range p.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// HostsWhere returns hosts whose property key equals value, sorted by name.
func (p *Platform) HostsWhere(key, value string) []*Host {
	var out []*Host
	for _, h := range p.Hosts() {
		if h.Prop(key) == value {
			out = append(out, h)
		}
	}
	return out
}

// Link returns the link with the given id, or nil.
func (p *Platform) Link(id string) *Link { return p.links[id] }

// Links returns all links sorted by id.
func (p *Platform) Links() []*Link {
	out := make([]*Link, 0, len(p.links))
	for _, l := range p.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumHosts returns the number of hosts on the platform.
func (p *Platform) NumHosts() int { return len(p.hosts) }

// NumLinks returns the number of links on the platform.
func (p *Platform) NumLinks() int { return len(p.links) }

// InvalidateRouteCache drops the compiled snapshot memo, so the next
// Snapshot call recompiles. Builders call it automatically; it is exported
// for tests and tooling. Snapshots already handed out are immutable and
// unaffected.
func (p *Platform) InvalidateRouteCache() {
	if p.snap.Load() != nil {
		p.snap.Store(nil)
	}
}

// checkLinks rejects a route whose traversals name no link or a link of
// another platform (whose ordinal would address the wrong link here).
func (p *Platform) checkLinks(links []LinkUse, src, dst string) error {
	for _, u := range links {
		l := u.Link
		if l == nil {
			return fmt.Errorf("platform: nil link in route %s->%s", src, dst)
		}
		if int(l.ord) >= len(p.linkList) || p.linkList[l.ord] != l {
			return fmt.Errorf("platform: link %q in route %s->%s is not on this platform", l.ID, src, dst)
		}
	}
	return nil
}

// declare gives a new netpoint the next ordinal of this AS.
func (as *AS) declare(id string, kind PointKind) {
	as.ords[id] = int32(len(as.points))
	as.points = append(as.points, netpoint{id, kind})
	as.floydBuilt = false
	as.platform.InvalidateRouteCache()
}

// AddAS creates a child AS.
func (as *AS) AddAS(id string, routing RoutingKind) (*AS, error) {
	if err := as.checkFresh(id); err != nil {
		return nil, err
	}
	child := newAS(id, routing, as, as.platform)
	as.children[id] = child
	as.childIDs = append(as.childIDs, id)
	as.declare(id, ASPoint)
	return child, nil
}

// AddHost creates a host in this AS. Host names are platform-unique and
// speeds must be positive: a speed of exactly 0 is the reserved
// host-failure sentinel of scenario overlays (Snapshot.HostDown) and may
// never enter through the builder.
func (as *AS) AddHost(id string, speed float64) (*Host, error) {
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		return nil, fmt.Errorf("platform: host %q has invalid speed %v", id, speed)
	}
	if err := as.checkFresh(id); err != nil {
		return nil, err
	}
	if _, dup := as.platform.hosts[id]; dup {
		return nil, fmt.Errorf("platform: host %q already exists", id)
	}
	h := &Host{ID: id, Speed: speed, AS: as}
	as.hosts[id] = h
	as.hostIDs = append(as.hostIDs, id)
	as.platform.hosts[id] = h
	as.declare(id, HostPoint)
	return h, nil
}

// AddRouter creates a router in this AS. Router names are platform-unique.
func (as *AS) AddRouter(id string) (*Router, error) {
	if err := as.checkFresh(id); err != nil {
		return nil, err
	}
	if _, dup := as.platform.routers[id]; dup {
		return nil, fmt.Errorf("platform: router %q already exists", id)
	}
	r := &Router{ID: id, AS: as}
	as.routers[id] = r
	as.routerID = append(as.routerID, id)
	as.platform.routers[id] = r
	as.declare(id, RouterPoint)
	return r, nil
}

// AddLink creates a link owned by this AS. Link ids are platform-unique.
func (as *AS) AddLink(id string, bandwidth, latency float64, policy SharingPolicy) (*Link, error) {
	if bandwidth <= 0 || math.IsNaN(bandwidth) {
		return nil, fmt.Errorf("platform: link %q has invalid bandwidth %v", id, bandwidth)
	}
	if latency < 0 || math.IsNaN(latency) {
		return nil, fmt.Errorf("platform: link %q has invalid latency %v", id, latency)
	}
	if _, dup := as.platform.links[id]; dup {
		return nil, fmt.Errorf("platform: link %q already exists", id)
	}
	p := as.platform
	l := &Link{ID: id, Bandwidth: bandwidth, Latency: latency, Policy: policy, ord: int32(len(p.linkList))}
	as.links[id] = l
	as.linkIDs = append(as.linkIDs, id)
	p.links[id] = l
	p.linkList = append(p.linkList, l)
	p.InvalidateRouteCache()
	return l, nil
}

func (as *AS) checkFresh(id string) error {
	if id == "" {
		return fmt.Errorf("platform: empty identifier in AS %q", as.ID)
	}
	if _, dup := as.ords[id]; dup {
		return fmt.Errorf("platform: %q already defined in AS %q", id, as.ID)
	}
	return nil
}

// Children returns the child ASes in insertion order.
func (as *AS) Children() []*AS {
	out := make([]*AS, 0, len(as.childIDs))
	for _, id := range as.childIDs {
		out = append(out, as.children[id])
	}
	return out
}

// Parent returns the enclosing AS, or nil for the root.
func (as *AS) Parent() *AS { return as.parent }

// AddRoute declares an explicit route between two netpoints of this AS
// (Full routing), or a one-hop edge (Floyd routing). If symmetrical is
// true the reverse route is derived automatically with reversed link order
// and flipped directions. A rejected declaration changes nothing.
func (as *AS) AddRoute(src, dst string, links []LinkUse, symmetrical bool) error {
	if as.Routing == RoutingCluster {
		return fmt.Errorf("platform: AS %q uses Cluster routing; routes are implicit", as.ID)
	}
	si, ok := as.lookup(src, as.lastSrc)
	if !ok {
		return fmt.Errorf("platform: route source %q unknown in AS %q", src, as.ID)
	}
	hint := si + 1
	if si == as.lastSrc {
		hint = as.lastDst + 1
	}
	di, ok := as.lookup(dst, hint)
	if !ok {
		return fmt.Errorf("platform: route destination %q unknown in AS %q", dst, as.ID)
	}
	if src == dst {
		return fmt.Errorf("platform: route from %q to itself in AS %q", src, as.ID)
	}
	if err := as.platform.checkLinks(links, src, dst); err != nil {
		return err
	}
	if as.routes.entry(si, di) != 0 {
		return fmt.Errorf("platform: duplicate route %s->%s in AS %q", src, dst, as.ID)
	}
	if symmetrical && as.routes.entry(di, si) != 0 {
		return fmt.Errorf("platform: duplicate reverse route %s->%s in AS %q", dst, src, as.ID)
	}
	as.routes.add(si, di, links, symmetrical, int32(len(as.points)))
	as.lastSrc, as.lastDst = si, di
	as.floydBuilt = false
	as.platform.InvalidateRouteCache()
	return nil
}

// lookup returns the ordinal of the point named name, trying hint first:
// a builder declaring routes in point order names the hinted point, and
// comparing one name costs less than hashing it.
func (as *AS) lookup(name string, hint int32) (int32, bool) {
	if uint32(hint) < uint32(len(as.points)) && as.points[hint].name == name {
		return hint, true
	}
	o, ok := as.ords[name]
	return o, ok
}

// AddASRoute declares a route between two child ASes of this AS, or
// between a child AS and a local netpoint (router or host) of this AS.
// gwSrc and gwDst are netpoints inside srcAS and dstAS; for a local
// endpoint the gateway must be the endpoint itself (or empty). A rejected
// declaration changes nothing.
func (as *AS) AddASRoute(srcAS, gwSrc, dstAS, gwDst string, links []LinkUse, symmetrical bool) error {
	checkEnd := func(end, gw string) error {
		o, ok := as.ords[end]
		if !ok {
			return fmt.Errorf("platform: ASroute endpoint %q unknown in AS %q", end, as.ID)
		}
		if as.points[o].kind != ASPoint && gw != "" && gw != end {
			return fmt.Errorf("platform: local ASroute endpoint %q cannot have distinct gateway %q", end, gw)
		}
		return nil
	}
	if err := checkEnd(srcAS, gwSrc); err != nil {
		return err
	}
	if err := checkEnd(dstAS, gwDst); err != nil {
		return err
	}
	if gwSrc == "" {
		gwSrc = srcAS
	}
	if gwDst == "" {
		gwDst = dstAS
	}
	if srcAS == dstAS {
		return fmt.Errorf("platform: ASroute from %q to itself", srcAS)
	}
	if err := as.platform.checkLinks(links, srcAS, dstAS); err != nil {
		return err
	}
	key, rkey := pairKey{srcAS, dstAS}, pairKey{dstAS, srcAS}
	if _, dup := as.asRoutes[key]; dup {
		return fmt.Errorf("platform: duplicate ASroute %s->%s in AS %q", srcAS, dstAS, as.ID)
	}
	if _, dup := as.asRoutes[rkey]; dup && symmetrical {
		return fmt.Errorf("platform: duplicate reverse ASroute %s->%s", dstAS, srcAS)
	}
	r := asRoute{gwSrc: gwSrc, gwDst: gwDst, links: append([]LinkUse(nil), links...)}
	for _, u := range links {
		r.latency += u.Link.Latency
	}
	as.asRoutes[key] = r
	if symmetrical {
		rev := asRoute{gwSrc: gwDst, gwDst: gwSrc, latency: r.latency}
		rev.links = make([]LinkUse, len(r.links))
		for i, u := range r.links {
			rev.links[len(r.links)-1-i] = u.Reverse()
		}
		as.asRoutes[rkey] = rev
	}
	as.platform.InvalidateRouteCache()
	return nil
}

// SetClusterTopology configures a Cluster-routing AS: every host (and the
// optional gateway router) gets the given private link; backbone may be
// nil for non-blocking switches. Routes become implicit:
//
//	host a -> host b : private(a):UP, [backbone], private(b):DOWN
//	host a -> router : private(a):UP, [backbone]
//
// Private links are created per host with id "<host>_link".
func (as *AS) SetClusterTopology(routerID string, privateBW, privateLat float64, privatePolicy SharingPolicy, backbone *Link) error {
	if as.Routing != RoutingCluster {
		return fmt.Errorf("platform: AS %q is not Cluster routing", as.ID)
	}
	if _, ok := as.routers[routerID]; routerID != "" && !ok {
		return fmt.Errorf("platform: cluster router %q unknown in AS %q", routerID, as.ID)
	}
	as.clusterRouter = routerID
	as.clusterBB = backbone
	for _, id := range as.hostIDs {
		l, err := as.AddLink(id+"_link", privateBW, privateLat, privatePolicy)
		if err != nil {
			return err
		}
		as.clusterPrivate[id] = l
	}
	as.platform.InvalidateRouteCache()
	return nil
}

// ancestry returns the chain of ASes from the root down to as.
func (as *AS) ancestry() []*AS {
	var chain []*AS
	for a := as; a != nil; a = a.parent {
		chain = append(chain, a)
	}
	// reverse to get root-first order
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}
