package platform

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file implements reading and writing of SimGrid-flavoured platform
// XML. The dialect is the version-3 format the paper's generators emitted:
//
//	<?xml version='1.0'?>
//	<platform version="3">
//	  <AS id="AS_grid5000" routing="Full">
//	    <AS id="AS_lyon" routing="Full">
//	      <host id="sagittaire-1.lyon.grid5000.fr" power="4.8e9">
//	        <prop id="cluster" value="sagittaire"/>
//	      </host>
//	      <router id="gw.lyon"/>
//	      <link id="sagittaire-1-nic" bandwidth="125000000" latency="1e-4"
//	            sharing_policy="SHARED"/>
//	      <route src="sagittaire-1.lyon.grid5000.fr" dst="gw.lyon"
//	             symmetrical="YES"><link_ctn id="sagittaire-1-nic"/></route>
//	    </AS>
//	    <ASroute src="AS_lyon" dst="AS_nancy" gw_src="gw.lyon"
//	             gw_dst="gw.nancy"><link_ctn id="bb_lyon_nancy"/></ASroute>
//	  </AS>
//	</platform>
//
// Cluster-routing ASes serialize their implicit structure with a
// <cluster_topology> element so that a written platform parses back to an
// equivalent one (round-trip property, tested in xml_test.go).

type xmlPlatform struct {
	XMLName xml.Name `xml:"platform"`
	Version string   `xml:"version,attr"`
	AS      xmlAS    `xml:"AS"`
}

type xmlAS struct {
	ID       string        `xml:"id,attr"`
	Routing  string        `xml:"routing,attr"`
	Hosts    []xmlHost     `xml:"host"`
	Routers  []xmlRouter   `xml:"router"`
	Links    []xmlLink     `xml:"link"`
	Routes   []xmlRoute    `xml:"route"`
	ASRoutes []xmlASRoute  `xml:"ASroute"`
	Children []xmlAS       `xml:"AS"`
	Cluster  *xmlClusterTp `xml:"cluster_topology"`
}

type xmlHost struct {
	ID    string    `xml:"id,attr"`
	Power string    `xml:"power,attr"`
	Props []xmlProp `xml:"prop"`
}

type xmlProp struct {
	ID    string `xml:"id,attr"`
	Value string `xml:"value,attr"`
}

type xmlRouter struct {
	ID string `xml:"id,attr"`
}

type xmlLink struct {
	ID        string `xml:"id,attr"`
	Bandwidth string `xml:"bandwidth,attr"`
	Latency   string `xml:"latency,attr"`
	Policy    string `xml:"sharing_policy,attr"`
}

type xmlLinkCtn struct {
	ID        string `xml:"id,attr"`
	Direction string `xml:"direction,attr"`
}

type xmlRoute struct {
	Src         string       `xml:"src,attr"`
	Dst         string       `xml:"dst,attr"`
	Symmetrical string       `xml:"symmetrical,attr"`
	Links       []xmlLinkCtn `xml:"link_ctn"`
}

type xmlASRoute struct {
	Src         string       `xml:"src,attr"`
	Dst         string       `xml:"dst,attr"`
	GwSrc       string       `xml:"gw_src,attr"`
	GwDst       string       `xml:"gw_dst,attr"`
	Symmetrical string       `xml:"symmetrical,attr"`
	Links       []xmlLinkCtn `xml:"link_ctn"`
}

type xmlClusterTp struct {
	Router     string `xml:"router,attr"`
	PrivateBW  string `xml:"private_bw,attr"`
	PrivateLat string `xml:"private_lat,attr"`
	Policy     string `xml:"sharing_policy,attr"`
	Backbone   string `xml:"backbone,attr"` // link id, may be empty
}

// Parse reads a platform description from r.
func Parse(r io.Reader) (*Platform, error) {
	var doc xmlPlatform
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("platform: parsing XML: %w", err)
	}
	rk, err := ParseRoutingKind(doc.AS.Routing)
	if err != nil {
		return nil, err
	}
	p := New(doc.AS.ID, rk)
	if err := fillAS(p.root, &doc.AS); err != nil {
		return nil, err
	}
	return p, nil
}

func fillAS(as *AS, x *xmlAS) error {
	for _, h := range x.Hosts {
		power := 1e9
		if h.Power != "" {
			v, err := strconv.ParseFloat(h.Power, 64)
			if err != nil {
				return fmt.Errorf("platform: host %q power: %w", h.ID, err)
			}
			power = v
		}
		host, err := as.AddHost(h.ID, power)
		if err != nil {
			return err
		}
		for _, pr := range h.Props {
			if host.Props == nil {
				host.Props = make(map[string]string)
			}
			host.Props[pr.ID] = pr.Value
		}
	}
	for _, r := range x.Routers {
		if _, err := as.AddRouter(r.ID); err != nil {
			return err
		}
	}
	for _, l := range x.Links {
		bw, err := strconv.ParseFloat(l.Bandwidth, 64)
		if err != nil {
			return fmt.Errorf("platform: link %q bandwidth: %w", l.ID, err)
		}
		lat := 0.0
		if l.Latency != "" {
			lat, err = strconv.ParseFloat(l.Latency, 64)
			if err != nil {
				return fmt.Errorf("platform: link %q latency: %w", l.ID, err)
			}
		}
		pol, err := ParseSharingPolicy(l.Policy)
		if err != nil {
			return err
		}
		if _, err := as.AddLink(l.ID, bw, lat, pol); err != nil {
			return err
		}
	}
	// Children before routes: ASroutes reference child AS ids, and
	// cluster_topology references hosts declared above.
	for i := range x.Children {
		cx := &x.Children[i]
		rk, err := ParseRoutingKind(cx.Routing)
		if err != nil {
			return err
		}
		child, err := as.AddAS(cx.ID, rk)
		if err != nil {
			return err
		}
		if err := fillAS(child, cx); err != nil {
			return err
		}
	}
	if x.Cluster != nil {
		bw, err := strconv.ParseFloat(x.Cluster.PrivateBW, 64)
		if err != nil {
			return fmt.Errorf("platform: cluster_topology in %q: %w", as.ID, err)
		}
		lat, err := strconv.ParseFloat(x.Cluster.PrivateLat, 64)
		if err != nil {
			return fmt.Errorf("platform: cluster_topology in %q: %w", as.ID, err)
		}
		pol, err := ParseSharingPolicy(x.Cluster.Policy)
		if err != nil {
			return err
		}
		var bb *Link
		if x.Cluster.Backbone != "" {
			bb = as.platform.Link(x.Cluster.Backbone)
			if bb == nil {
				return fmt.Errorf("platform: cluster backbone %q unknown", x.Cluster.Backbone)
			}
		}
		if err := as.SetClusterTopology(x.Cluster.Router, bw, lat, pol, bb); err != nil {
			return err
		}
	}
	resolve := func(links []xmlLinkCtn, where string) ([]LinkUse, error) {
		out := make([]LinkUse, 0, len(links))
		for _, lc := range links {
			l := as.platform.Link(lc.ID)
			if l == nil {
				return nil, fmt.Errorf("platform: %s references unknown link %q", where, lc.ID)
			}
			dir := None
			switch lc.Direction {
			case "UP":
				dir = Up
			case "DOWN":
				dir = Down
			}
			out = append(out, LinkUse{Link: l, Direction: dir})
		}
		return out, nil
	}
	for _, rt := range x.Routes {
		links, err := resolve(rt.Links, fmt.Sprintf("route %s->%s", rt.Src, rt.Dst))
		if err != nil {
			return err
		}
		if err := as.AddRoute(rt.Src, rt.Dst, links, rt.Symmetrical == "YES"); err != nil {
			return err
		}
	}
	for _, rt := range x.ASRoutes {
		links, err := resolve(rt.Links, fmt.Sprintf("ASroute %s->%s", rt.Src, rt.Dst))
		if err != nil {
			return err
		}
		if err := as.AddASRoute(rt.Src, rt.GwSrc, rt.Dst, rt.GwDst, links, rt.Symmetrical == "YES"); err != nil {
			return err
		}
	}
	return nil
}

// WriteXML serializes the platform. Output is deterministic: children and
// declarations appear in insertion order, route tables sorted by key.
func (p *Platform) WriteXML(w io.Writer) error {
	doc := xmlPlatform{Version: "3", AS: dumpAS(p.root)}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("platform: encoding XML: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func dumpAS(as *AS) xmlAS {
	x := xmlAS{ID: as.ID, Routing: as.Routing.String()}
	for _, id := range as.hostIDs {
		h := as.hosts[id]
		xh := xmlHost{ID: id, Power: formatFloat(h.Speed)}
		keys := make([]string, 0, len(h.Props))
		for k := range h.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xh.Props = append(xh.Props, xmlProp{ID: k, Value: h.Props[k]})
		}
		x.Hosts = append(x.Hosts, xh)
	}
	for _, id := range as.routerID {
		x.Routers = append(x.Routers, xmlRouter{ID: id})
	}
	for _, id := range as.linkIDs {
		l := as.links[id]
		// Implicit cluster private links are re-created by
		// SetClusterTopology at parse time; skip them here.
		if as.Routing == RoutingCluster && as.clusterPrivate[trimSuffix(id, "_link")] == l {
			continue
		}
		x.Links = append(x.Links, xmlLink{
			ID:        id,
			Bandwidth: formatFloat(l.Bandwidth),
			Latency:   formatFloat(l.Latency),
			Policy:    l.Policy.String(),
		})
	}
	// Routes sorted for deterministic output. Symmetry is not
	// reconstructed: both directions serialize explicitly, which is valid
	// (AddRoute with symmetrical=NO for each).
	var routeKeys []pairKey
	as.routes.each(func(s, d int32, _ float64) {
		routeKeys = append(routeKeys, pairKey{as.points[s].name, as.points[d].name})
	})
	sortPairs(routeKeys)
	var refs []LinkRef
	for _, k := range routeKeys {
		refs, _, _ = as.routes.appendTo(refs[:0], as.ords[k.src], as.ords[k.dst])
		xr := xmlRoute{Src: k.src, Dst: k.dst, Symmetrical: "NO"}
		for _, ref := range refs {
			xr.Links = append(xr.Links, xmlLinkCtn{ID: as.platform.linkList[ref.LinkIndex()].ID, Direction: dirAttr(ref.Direction())})
		}
		x.Routes = append(x.Routes, xr)
	}
	asKeys := make([]pairKey, 0, len(as.asRoutes))
	for k := range as.asRoutes {
		asKeys = append(asKeys, k)
	}
	sortPairs(asKeys)
	for _, k := range asKeys {
		ar := as.asRoutes[k]
		xr := xmlASRoute{Src: k.src, Dst: k.dst, GwSrc: ar.gwSrc, GwDst: ar.gwDst, Symmetrical: "NO"}
		for _, u := range ar.links {
			xr.Links = append(xr.Links, xmlLinkCtn{ID: u.Link.ID, Direction: dirAttr(u.Direction)})
		}
		x.ASRoutes = append(x.ASRoutes, xr)
	}
	if as.Routing == RoutingCluster && len(as.clusterPrivate) > 0 {
		// All private links share parameters by construction.
		var sample *Link
		for _, l := range as.clusterPrivate {
			sample = l
			break
		}
		ct := &xmlClusterTp{
			Router:     as.clusterRouter,
			PrivateBW:  formatFloat(sample.Bandwidth),
			PrivateLat: formatFloat(sample.Latency),
			Policy:     sample.Policy.String(),
		}
		if as.clusterBB != nil {
			ct.Backbone = as.clusterBB.ID
		}
		x.Cluster = ct
	}
	for _, c := range as.Children() {
		x.Children = append(x.Children, dumpAS(c))
	}
	return x
}

func dirAttr(d Direction) string {
	if d == None {
		return ""
	}
	return d.String()
}

func sortPairs(ps []pairKey) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].src != ps[j].src {
			return ps[i].src < ps[j].src
		}
		return ps[i].dst < ps[j].dst
	})
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func trimSuffix(s, suffix string) string {
	if len(s) >= len(suffix) && s[len(s)-len(suffix):] == suffix {
		return s[:len(s)-len(suffix)]
	}
	return s
}
