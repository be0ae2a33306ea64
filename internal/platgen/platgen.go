// Package platgen converts a Grid'5000 reference description (package
// g5k) into a simulator platform (package platform). It is the analogue
// of the paper's "Grid'5000 to SimGrid wrapper" (§IV-C2) and produces the
// two platform flavours evaluated in §V-A:
//
//   - G5KTest ("g5k_test"): built from the detailed network description —
//     one AS per site, every host enumerated with its access link, the
//     aggregation switches and their uplinks modeled explicitly. Less
//     compact, loads slower, but conforms to reality; the paper found all
//     its predictions better on this flavour. Assembling it (Generate
//     plus the compiled snapshot: 516 hosts, 47 731 intra-site route
//     declarations) takes ~9-14 ms on a shared 2-vCPU Xeon
//     (BenchmarkPlatformSetup).
//   - G5KCabinets ("g5k_cabinets"): built from the basic topology
//     information only — clusters abstracted into homogeneous boxes
//     (SimGrid <cluster> style), losing the aggregation structure.
//
// Both flavours hardcode the intra-site (1e-4 s) and backbone (2.25e-3 s)
// latencies, as the paper did. Two extensions implement the paper's
// stated future work: UseMeasuredLatencies takes backbone latencies from
// the reference (i.e. from metrology measurements), and EquipmentLimits
// adds backplane capacity constraints for network equipment.
//
// The Flat option materializes the whole platform in a single AS with a
// complete host-pair route table — the pre-hierarchical-routing situation
// that made whole-Grid'5000 simulation intractable (§IV-C2), kept for the
// ablation benchmarks.
package platgen

import (
	"fmt"
	"sort"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
)

// Variant selects the generated platform flavour.
type Variant int

// Platform flavours (§V-A).
const (
	G5KTest Variant = iota
	G5KCabinets
)

// String returns the platform name used in PNFS URLs.
func (v Variant) String() string {
	switch v {
	case G5KTest:
		return "g5k_test"
	case G5KCabinets:
		return "g5k_cabinets"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant is the inverse of String.
func ParseVariant(name string) (Variant, bool) {
	for _, v := range []Variant{G5KTest, G5KCabinets} {
		if v.String() == name {
			return v, true
		}
	}
	return 0, false
}

// Named resolves a generated platform's name to the reference it is
// built from and its variant. A variant name builds ref; "g5k_mini"
// builds the compact two-site g5k.Mini with the G5KTest topology, the
// fast flavour for smoke campaigns and CI.
func Named(name string, ref *g5k.Reference) (*g5k.Reference, Variant, bool) {
	if name == "g5k_mini" {
		return g5k.Mini(), G5KTest, true
	}
	v, ok := ParseVariant(name)
	return ref, v, ok
}

// Options configures generation. The zero value reproduces the paper's
// g5k_test platform.
type Options struct {
	Variant Variant
	// IntraSiteLatency is the hardcoded one-way latency of intra-site
	// links; 0 means the paper's 1e-4 s.
	IntraSiteLatency float64
	// BackboneLatency is the hardcoded one-way latency of backbone
	// links; 0 means the paper's 2.25e-3 s.
	BackboneLatency float64
	// UseMeasuredLatencies replaces BackboneLatency with each backbone
	// segment's measured latency from the reference (future work §VI).
	UseMeasuredLatencies bool
	// EquipmentLimits inserts backplane capacity constraints for every
	// network equipment (future work §VI). The paper's platforms did not
	// have them (§V-A).
	EquipmentLimits bool
	// Flat disables hierarchical routing: one AS, full route table.
	Flat bool
	// AccessPolicy is the sharing policy of host access and aggregation
	// links. The paper's generator emitted half-duplex SHARED links —
	// the default here; see EXPERIMENTS.md for the role this plays in
	// the graphene over-prediction.
	AccessPolicy platform.SharingPolicy
}

func (o Options) intraLat() float64 {
	if o.IntraSiteLatency == 0 {
		return 1e-4
	}
	return o.IntraSiteLatency
}

func (o Options) bbLat(measured float64) float64 {
	if o.UseMeasuredLatencies && measured > 0 {
		return measured
	}
	if o.BackboneLatency == 0 {
		return 2.25e-3
	}
	return o.BackboneLatency
}

// bytesPerSec converts a reference rate in bits/s to bytes/s.
func bytesPerSec(bps float64) float64 { return bps / 8 }

// Generate builds the platform for the given reference and options.
func Generate(ref *g5k.Reference, opts Options) (*platform.Platform, error) {
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("platgen: invalid reference: %w", err)
	}
	g := &generator{ref: ref, opts: opts}
	if opts.Flat {
		return g.generateFlat()
	}
	switch opts.Variant {
	case G5KTest:
		return g.generateTest()
	case G5KCabinets:
		return g.generateCabinets()
	default:
		return nil, fmt.Errorf("platgen: unknown variant %v", opts.Variant)
	}
}

type generator struct {
	ref  *g5k.Reference
	opts Options
}

// hostInfo collects what route emission needs to know about one node.
type hostInfo struct {
	fqdn    string
	nicLink *platform.Link
	sw      string // equipment uid the NIC plugs into
	site    string
	// The legs of its switch, resolved once per host: the uplink to the
	// site gateway and the backplane, nil when the switch has none.
	up, bp *platform.Link
}

// generateTest builds the hierarchical host-level platform.
func (g *generator) generateTest() (*platform.Platform, error) {
	p := platform.New("AS_grid5000", platform.RoutingFull)
	root := p.Root()

	for _, siteID := range g.ref.SiteIDs() {
		site := g.ref.Sites[siteID]
		as, err := root.AddAS("AS_"+siteID, platform.RoutingFull)
		if err != nil {
			return nil, err
		}
		if err := g.fillSiteDetailed(p, as, site); err != nil {
			return nil, err
		}
	}
	if err := g.addBackbone(p, root, func(siteID string) (string, string) {
		return "AS_" + siteID, g.ref.Sites[siteID].Gateway
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// fillSiteDetailed populates one site AS with routers, hosts, access
// links, uplinks, and the full intra-site route table.
func (g *generator) fillSiteDetailed(p *platform.Platform, as *platform.AS, site *g5k.Site) error {
	gw := site.Gateway
	// Equipment become routers; remember uplink links towards the
	// gateway. Multi-hop equipment chains are not present in the dataset
	// (aggregation switches connect straight to the site router), so a
	// single-level uplink map suffices.
	uplink := make(map[string]*platform.Link) // equipment uid -> link to gw
	eqIDs := make([]string, 0, len(site.Equipment))
	for id := range site.Equipment {
		eqIDs = append(eqIDs, id)
	}
	sort.Strings(eqIDs)
	for _, id := range eqIDs {
		if _, err := as.AddRouter(id); err != nil {
			return err
		}
	}
	for _, id := range eqIDs {
		eq := site.Equipment[id]
		for _, up := range eq.Uplinks {
			l, err := as.AddLink(fmt.Sprintf("%s_%s", id, up.To),
				bytesPerSec(up.RateBps), g.opts.intraLat(), g.opts.AccessPolicy)
			if err != nil {
				return err
			}
			if up.To == gw {
				uplink[id] = l
			}
		}
	}
	// Optional backplane constraints.
	backplane := make(map[string]*platform.Link)
	if g.opts.EquipmentLimits {
		for _, id := range eqIDs {
			eq := site.Equipment[id]
			if eq.BackplaneBps <= 0 {
				continue
			}
			l, err := as.AddLink(id+"_backplane", bytesPerSec(eq.BackplaneBps), 0, platform.Shared)
			if err != nil {
				return err
			}
			backplane[id] = l
		}
	}

	var hosts []hostInfo
	for _, cid := range site.ClusterIDs() {
		cluster := site.Clusters[cid]
		for _, nid := range cluster.NodeIDs() {
			node := cluster.Nodes[nid]
			itf := node.Interfaces[0]
			fqdn := g5k.FQDN(nid, site.UID)
			h, err := as.AddHost(fqdn, cluster.GFlops*1e9)
			if err != nil {
				return err
			}
			h.Props = map[string]string{
				"cluster": cid,
				"site":    site.UID,
				"class":   cluster.NodeClass,
				"switch":  itf.Switch,
			}
			nic, err := as.AddLink(fqdn+"_nic", bytesPerSec(itf.RateBps), g.opts.intraLat(), g.opts.AccessPolicy)
			if err != nil {
				return err
			}
			hosts = append(hosts, hostInfo{fqdn: fqdn, nicLink: nic, sw: itf.Switch, site: site.UID,
				up: uplink[itf.Switch], bp: backplane[itf.Switch]})
		}
	}

	// appendLeg appends a traversal of l, if the leg exists.
	appendLeg := func(links []platform.LinkUse, l *platform.Link, dir platform.Direction) []platform.LinkUse {
		if l != nil {
			return append(links, platform.LinkUse{Link: l, Direction: dir})
		}
		return links
	}
	gwBP := backplane[gw]

	// One scratch route for every declaration: AddRoute copies its input.
	var links []platform.LinkUse
	// Routes host -> gateway.
	for _, h := range hosts {
		links = append(links[:0], platform.LinkUse{Link: h.nicLink, Direction: platform.Up})
		links = appendLeg(links, h.bp, platform.None)
		links = appendLeg(links, h.up, platform.Up)
		if h.sw != gw { // gateway backplane, unless already added above
			links = appendLeg(links, gwBP, platform.None)
		}
		if err := as.AddRoute(h.fqdn, gw, links, true); err != nil {
			return err
		}
	}
	// Routes host -> host.
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			links = append(links[:0], platform.LinkUse{Link: a.nicLink, Direction: platform.Up})
			links = appendLeg(links, a.bp, platform.None)
			if a.sw != b.sw { // same equipment: through its backplane only
				links = appendLeg(links, a.up, platform.Up)
				// The site gateway is traversed unless it is one of the
				// endpoints' own switches (already accounted above/below).
				if a.sw != gw && b.sw != gw {
					links = appendLeg(links, gwBP, platform.None)
				}
				links = appendLeg(links, b.up, platform.Down)
				links = appendLeg(links, b.bp, platform.None)
			}
			links = append(links, platform.LinkUse{Link: b.nicLink, Direction: platform.Down})
			if err := as.AddRoute(a.fqdn, b.fqdn, links, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// generateCabinets builds the abstracted platform: one Cluster-routing AS
// per cluster, aggregation structure collapsed.
func (g *generator) generateCabinets() (*platform.Platform, error) {
	p := platform.New("AS_grid5000", platform.RoutingFull)
	root := p.Root()

	for _, siteID := range g.ref.SiteIDs() {
		site := g.ref.Sites[siteID]
		as, err := root.AddAS("AS_"+siteID, platform.RoutingFull)
		if err != nil {
			return nil, err
		}
		if _, err := as.AddRouter(site.Gateway); err != nil {
			return nil, err
		}
		for _, cid := range site.ClusterIDs() {
			cluster := site.Clusters[cid]
			cas, err := as.AddAS("AS_"+cid, platform.RoutingCluster)
			if err != nil {
				return nil, err
			}
			gwName := cid + "-gw." + siteID
			if _, err := cas.AddRouter(gwName); err != nil {
				return nil, err
			}
			var rate float64
			for _, nid := range cluster.NodeIDs() {
				node := cluster.Nodes[nid]
				rate = node.Interfaces[0].RateBps
				fqdn := g5k.FQDN(nid, siteID)
				h, err := cas.AddHost(fqdn, cluster.GFlops*1e9)
				if err != nil {
					return nil, err
				}
				h.Props = map[string]string{
					"cluster": cid,
					"site":    siteID,
					"class":   cluster.NodeClass,
				}
			}
			// Aggregate uplink capacity of the cluster's switches (flat
			// clusters plug straight into the router: no backbone link).
			var bb *platform.Link
			total := g.clusterUplinkCapacity(site, cluster)
			if total > 0 {
				bb, err = cas.AddLink(cid+"_bb", bytesPerSec(total), g.opts.intraLat(), g.opts.AccessPolicy)
				if err != nil {
					return nil, err
				}
			}
			if err := cas.SetClusterTopology(gwName, bytesPerSec(rate), g.opts.intraLat(), g.opts.AccessPolicy, bb); err != nil {
				return nil, err
			}
			// Connect the cluster to the site gateway.
			if err := as.AddASRoute("AS_"+cid, gwName, site.Gateway, "", nil, true); err != nil {
				return nil, err
			}
		}
		// Cluster-to-cluster inside the site: through the gateway, no
		// extra links (the router is assumed non-blocking here).
		cids := site.ClusterIDs()
		for i, a := range cids {
			for _, b := range cids[i+1:] {
				if err := as.AddASRoute("AS_"+a, a+"-gw."+siteID, "AS_"+b, b+"-gw."+siteID, nil, true); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := g.addBackbone(p, root, func(siteID string) (string, string) {
		return "AS_" + siteID, g.ref.Sites[siteID].Gateway
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// clusterUplinkCapacity sums the uplink rates of the switches hosting the
// cluster's nodes (0 when nodes plug straight into the site router).
func (g *generator) clusterUplinkCapacity(site *g5k.Site, cluster *g5k.Cluster) float64 {
	seen := make(map[string]bool)
	total := 0.0
	for _, n := range cluster.Nodes {
		sw := n.Interfaces[0].Switch
		if seen[sw] || sw == site.Gateway {
			continue
		}
		seen[sw] = true
		for _, up := range site.Equipment[sw].Uplinks {
			if up.To == site.Gateway {
				total += up.RateBps
			}
		}
	}
	return total
}

// backboneHop is one traversal of a backbone segment.
type backboneHop struct {
	link *platform.Link
	dir  platform.Direction
}

// addBackbone creates backbone links and AS routes between every site
// pair, routing across the backbone graph (hubs + segments).
func (g *generator) addBackbone(p *platform.Platform, root *platform.AS, siteEndpoint func(siteID string) (asID, gw string)) error {
	for _, hub := range g.ref.Hubs {
		if _, err := root.AddRouter(hub); err != nil {
			return err
		}
	}
	links := make(map[string]*platform.Link, len(g.ref.Backbone))
	for _, b := range g.ref.Backbone {
		l, err := root.AddLink(b.ID, bytesPerSec(b.RateBps), g.opts.bbLat(b.LatencyS), platform.FullDuplex)
		if err != nil {
			return err
		}
		links[b.ID] = l
	}
	sites := g.ref.SiteIDs()
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			hops, err := g.backbonePath(g.ref.Sites[a].Gateway, g.ref.Sites[b].Gateway, links)
			if err != nil {
				return err
			}
			uses := make([]platform.LinkUse, len(hops))
			for k, h := range hops {
				uses[k] = platform.LinkUse{Link: h.link, Direction: h.dir}
			}
			asA, gwA := siteEndpoint(a)
			asB, gwB := siteEndpoint(b)
			if err := root.AddASRoute(asA, gwA, asB, gwB, uses, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// backbonePath finds the shortest hop path between two gateway equipments
// over the backbone segments (BFS; the backbone graph is tiny).
func (g *generator) backbonePath(from, to string, links map[string]*platform.Link) ([]backboneHop, error) {
	type edge struct {
		to   string
		link *platform.Link
		dir  platform.Direction
	}
	adj := make(map[string][]edge)
	for _, b := range g.ref.Backbone {
		l := links[b.ID]
		adj[b.From] = append(adj[b.From], edge{to: b.To, link: l, dir: platform.Up})
		adj[b.To] = append(adj[b.To], edge{to: b.From, link: l, dir: platform.Down})
	}
	type state struct {
		node string
		path []backboneHop
	}
	visited := map[string]bool{from: true}
	queue := []state{{node: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.node == to {
			return cur.path, nil
		}
		for _, e := range adj[cur.node] {
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			next := make([]backboneHop, len(cur.path), len(cur.path)+1)
			copy(next, cur.path)
			next = append(next, backboneHop{link: e.link, dir: e.dir})
			queue = append(queue, state{node: e.to, path: next})
		}
	}
	return nil, fmt.Errorf("platgen: no backbone path %s -> %s", from, to)
}

// generateFlat builds the whole platform in a single AS with an explicit
// route for every host pair (the pre-AS situation, for ablation).
func (g *generator) generateFlat() (*platform.Platform, error) {
	p := platform.New("AS_grid5000_flat", platform.RoutingFull)
	root := p.Root()

	type flatHost struct {
		hostInfo
		toGW   []platform.LinkUse // path from host up to its site gateway
		fromGW []platform.LinkUse // its reverse
		si     int                // its site's index in SiteIDs
	}
	var hosts []flatHost
	gwBySite := make(map[string]string)

	sites := g.ref.SiteIDs()
	for si, siteID := range sites {
		site := g.ref.Sites[siteID]
		gwBySite[siteID] = site.Gateway
		eqIDs := make([]string, 0, len(site.Equipment))
		for id := range site.Equipment {
			eqIDs = append(eqIDs, id)
		}
		sort.Strings(eqIDs)
		uplink := make(map[string]*platform.Link)
		for _, id := range eqIDs {
			if _, err := root.AddRouter(id); err != nil {
				return nil, err
			}
		}
		for _, id := range eqIDs {
			eq := site.Equipment[id]
			for _, up := range eq.Uplinks {
				l, err := root.AddLink(fmt.Sprintf("%s_%s", id, up.To),
					bytesPerSec(up.RateBps), g.opts.intraLat(), g.opts.AccessPolicy)
				if err != nil {
					return nil, err
				}
				if up.To == site.Gateway {
					uplink[id] = l
				}
			}
		}
		for _, cid := range site.ClusterIDs() {
			cluster := site.Clusters[cid]
			for _, nid := range cluster.NodeIDs() {
				node := cluster.Nodes[nid]
				itf := node.Interfaces[0]
				fqdn := g5k.FQDN(nid, siteID)
				h, err := root.AddHost(fqdn, cluster.GFlops*1e9)
				if err != nil {
					return nil, err
				}
				h.Props = map[string]string{"cluster": cid, "site": siteID, "class": cluster.NodeClass, "switch": itf.Switch}
				nic, err := root.AddLink(fqdn+"_nic", bytesPerSec(itf.RateBps), g.opts.intraLat(), g.opts.AccessPolicy)
				if err != nil {
					return nil, err
				}
				fh := flatHost{hostInfo: hostInfo{fqdn: fqdn, nicLink: nic, sw: itf.Switch, site: siteID}, si: si}
				fh.toGW = []platform.LinkUse{{Link: nic, Direction: platform.Up}}
				if up := uplink[itf.Switch]; up != nil {
					fh.toGW = append(fh.toGW, platform.LinkUse{Link: up, Direction: platform.Up})
				}
				for i := len(fh.toGW) - 1; i >= 0; i-- {
					fh.fromGW = append(fh.fromGW, fh.toGW[i].Reverse())
				}
				hosts = append(hosts, fh)
			}
		}
	}

	// Backbone links and gateway-to-gateway paths.
	for _, hub := range g.ref.Hubs {
		if _, err := root.AddRouter(hub); err != nil {
			return nil, err
		}
	}
	bbLinks := make(map[string]*platform.Link)
	for _, b := range g.ref.Backbone {
		l, err := root.AddLink(b.ID, bytesPerSec(b.RateBps), g.opts.bbLat(b.LatencyS), platform.FullDuplex)
		if err != nil {
			return nil, err
		}
		bbLinks[b.ID] = l
	}
	bbPath := make([][][]platform.LinkUse, len(sites)) // [site a][site b]
	for ai, a := range sites {
		bbPath[ai] = make([][]platform.LinkUse, len(sites))
		for bi, b := range sites {
			if a == b {
				continue
			}
			hops, err := g.backbonePath(gwBySite[a], gwBySite[b], bbLinks)
			if err != nil {
				return nil, err
			}
			uses := make([]platform.LinkUse, len(hops))
			for k, h := range hops {
				uses[k] = platform.LinkUse{Link: h.link, Direction: h.dir}
			}
			bbPath[ai][bi] = uses
		}
	}

	// The full O(N^2) route table, declared through one scratch route
	// (AddRoute copies its input).
	var links []platform.LinkUse
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			switch {
			case a.site == b.site && a.sw == b.sw:
				links = append(links[:0], platform.LinkUse{Link: a.nicLink, Direction: platform.Up},
					platform.LinkUse{Link: b.nicLink, Direction: platform.Down})
			case a.site == b.site:
				links = append(append(links[:0], a.toGW...), b.fromGW...)
			default:
				links = append(links[:0], a.toGW...)
				links = append(links, bbPath[a.si][b.si]...)
				links = append(links, b.fromGW...)
			}
			if err := root.AddRoute(a.fqdn, b.fqdn, links, true); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}
