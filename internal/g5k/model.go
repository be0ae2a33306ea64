// Package g5k models the Grid'5000 Reference API (paper §IV-B/§IV-C2): a
// machine-readable self-description of the platform — sites, clusters,
// nodes, network interfaces, network equipment with linecards and
// backplanes, and backbone links — served over a JSON REST API.
//
// The real API is populated by scripts run on the testbed; here the
// dataset (dataset.go) embeds the topology the paper describes: Lyon
// (sagittaire, capricorne — flat gigabit clusters behind an
// ExtremeNetworks BlackDiamond 8810), Nancy (graphene, griffon — four
// aggregation switches each, 10 Gb/s uplinked to the site router, Fig. 2),
// Lille (three flat clusters and one aggregated), and the 10 Gb/s RENATER
// backbone connecting site gateways through a Paris hub (Fig. 1).
//
// Package platgen converts this description into simulator platforms, the
// same role as the paper's "Grid'5000 to SimGrid wrapper".
package g5k

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Reference is the root of the platform self-description.
type Reference struct {
	// Sites maps site uid (e.g. "lyon") to its description.
	Sites map[string]*Site `json:"sites"`
	// Backbone lists the inter-site links of the national network.
	Backbone []*BackboneLink `json:"backbone"`
	// Hubs lists backbone-only routing points (e.g. "renater.paris").
	Hubs []string `json:"hubs"`
}

// Site is one geographical Grid'5000 site.
type Site struct {
	UID string `json:"uid"`
	// Gateway is the uid of the site's border equipment (e.g. "gw-lyon").
	Gateway string `json:"gateway"`
	// Clusters maps cluster uid to description.
	Clusters map[string]*Cluster `json:"clusters"`
	// Equipment maps equipment uid to description (routers, switches).
	Equipment map[string]*Equipment `json:"network_equipment"`
}

// Cluster is a homogeneous set of compute nodes.
type Cluster struct {
	UID   string `json:"uid"`
	Model string `json:"model"` // CPU model, informational
	// GFlops is the per-node compute speed used by simulation platforms.
	GFlops float64 `json:"gflops"`
	// Nodes maps node uid (e.g. "sagittaire-1") to description.
	Nodes map[string]*Node `json:"nodes"`
	// NodeClass names the testbed latency/overhead profile of the
	// cluster's hardware generation (see internal/testbed).
	NodeClass string `json:"node_class"`
}

// Node is one compute node.
type Node struct {
	UID string `json:"uid"`
	// Interfaces lists the node's network adapters. Experiments use the
	// first one.
	Interfaces []Interface `json:"network_adapters"`
}

// Interface is one network adapter of a node.
type Interface struct {
	Device string `json:"device"` // e.g. "eth0"
	// RateBps is the nominal interface rate in bits per second.
	RateBps float64 `json:"rate"`
	// Switch is the uid of the equipment the interface plugs into.
	Switch string `json:"switch"`
	// Port is the port name on that equipment.
	Port string `json:"port"`
}

// Equipment is one network device (router or switch).
type Equipment struct {
	UID  string `json:"uid"`
	Kind string `json:"kind"` // "router" | "switch"
	// BackplaneBps is the aggregate switching capacity in bits/s
	// (0 = unknown/not limiting).
	BackplaneBps float64 `json:"backplane_bps"`
	// Linecards describe port groups with their own aggregate limits.
	Linecards []Linecard `json:"linecards"`
	// Uplinks are trunk connections towards other equipment of the same
	// site.
	Uplinks []Uplink `json:"uplinks"`
}

// Linecard is a port group of an equipment with an aggregate rate limit.
type Linecard struct {
	RateBps float64 `json:"rate"`
	Ports   int     `json:"ports"`
}

// Uplink is a trunk link between two pieces of equipment in one site.
type Uplink struct {
	To      string  `json:"to"`   // target equipment uid
	RateBps float64 `json:"rate"` // bits per second
}

// BackboneLink is one national backbone segment.
type BackboneLink struct {
	ID      string  `json:"uid"`
	From    string  `json:"from"` // equipment uid or hub name
	To      string  `json:"to"`
	RateBps float64 `json:"rate"`
	// LatencyS is the measured one-way latency of the segment in
	// seconds. The paper's generator ignored it (hardcoding 2.25e-3);
	// keeping the measurement supports the "use automatic link latency
	// measurements" future work.
	LatencyS float64 `json:"latency"`
}

// SiteIDs returns the sorted site uids.
func (r *Reference) SiteIDs() []string {
	out := make([]string, 0, len(r.Sites))
	for id := range r.Sites {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ClusterIDs returns the sorted cluster uids of a site.
func (s *Site) ClusterIDs() []string {
	out := make([]string, 0, len(s.Clusters))
	for id := range s.Clusters {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// NodeIDs returns the sorted node uids of a cluster, in natural
// (numeric-suffix-aware) order: sagittaire-2 before sagittaire-10.
func (c *Cluster) NodeIDs() []string {
	out := make([]string, 0, len(c.Nodes))
	for id := range c.Nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return naturalLess(out[i], out[j]) })
	return out
}

// naturalLess compares strings with trailing integers numerically.
func naturalLess(a, b string) bool {
	pa, na, oka := splitTrailingInt(a)
	pb, nb, okb := splitTrailingInt(b)
	if oka && okb && pa == pb {
		return na < nb
	}
	return a < b
}

func splitTrailingInt(s string) (prefix string, n int, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return s, 0, false
	}
	v := 0
	for _, c := range s[i:] {
		v = v*10 + int(c-'0')
	}
	return s[:i], v, true
}

// Validate checks referential integrity: every interface plugs into known
// equipment, uplinks target known equipment, gateways exist, and backbone
// endpoints resolve to site gateways or hubs.
func (r *Reference) Validate() error {
	hub := make(map[string]bool, len(r.Hubs))
	for _, h := range r.Hubs {
		hub[h] = true
	}
	gateways := make(map[string]bool)
	for sid, s := range r.Sites {
		if s.UID != sid {
			return fmt.Errorf("g5k: site key %q has uid %q", sid, s.UID)
		}
		if _, ok := s.Equipment[s.Gateway]; !ok {
			return fmt.Errorf("g5k: site %q gateway %q not in equipment", sid, s.Gateway)
		}
		gateways[s.Gateway] = true
		for eid, e := range s.Equipment {
			if e.UID != eid {
				return fmt.Errorf("g5k: equipment key %q has uid %q in site %q", eid, e.UID, sid)
			}
			for _, u := range e.Uplinks {
				if _, ok := s.Equipment[u.To]; !ok {
					return fmt.Errorf("g5k: uplink %s->%s targets unknown equipment in site %q", eid, u.To, sid)
				}
				if u.RateBps <= 0 {
					return fmt.Errorf("g5k: uplink %s->%s has invalid rate", eid, u.To)
				}
			}
		}
		for cid, c := range s.Clusters {
			if c.UID != cid {
				return fmt.Errorf("g5k: cluster key %q has uid %q", cid, c.UID)
			}
			for nid, n := range c.Nodes {
				if n.UID != nid {
					return fmt.Errorf("g5k: node key %q has uid %q", nid, n.UID)
				}
				if len(n.Interfaces) == 0 {
					return fmt.Errorf("g5k: node %q has no interface", nid)
				}
				for _, itf := range n.Interfaces {
					if _, ok := s.Equipment[itf.Switch]; !ok {
						return fmt.Errorf("g5k: node %q interface plugs into unknown equipment %q", nid, itf.Switch)
					}
					if itf.RateBps <= 0 {
						return fmt.Errorf("g5k: node %q interface has invalid rate", nid)
					}
				}
			}
		}
	}
	for _, b := range r.Backbone {
		for _, end := range []string{b.From, b.To} {
			if !hub[end] && !gateways[end] {
				return fmt.Errorf("g5k: backbone link %q endpoint %q is neither hub nor gateway", b.ID, end)
			}
		}
		if b.RateBps <= 0 || b.LatencyS < 0 {
			return fmt.Errorf("g5k: backbone link %q has invalid parameters", b.ID)
		}
	}
	return nil
}

// NumNodes returns the total node count.
func (r *Reference) NumNodes() int {
	n := 0
	for _, s := range r.Sites {
		for _, c := range s.Clusters {
			n += len(c.Nodes)
		}
	}
	return n
}

// WriteJSON serializes the reference with stable indentation.
func (r *Reference) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a reference previously produced by WriteJSON.
func ReadJSON(rd io.Reader) (*Reference, error) {
	var r Reference
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("g5k: decoding reference: %w", err)
	}
	return &r, nil
}
