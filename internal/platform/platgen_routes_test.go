package platform_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
)

// randomReference synthesizes a valid Grid'5000-style reference: 2-4
// sites, each with a gateway router, optional aggregation switches, 1-3
// clusters of 2-5 nodes, and a backbone chaining the gateways through an
// optional hub. It is a copy of platgen's test generator of the same name
// (whose tests cannot be imported here): a seed names the same platform in
// both packages only while the two copies agree.
func randomReference(rng *rand.Rand) *g5k.Reference {
	ref := &g5k.Reference{Sites: map[string]*g5k.Site{}}
	nSites := 2 + rng.Intn(3)
	var gws []string
	for si := 0; si < nSites; si++ {
		sid := fmt.Sprintf("site%d", si)
		gw := "gw-" + sid
		site := &g5k.Site{
			UID:       sid,
			Gateway:   gw,
			Clusters:  map[string]*g5k.Cluster{},
			Equipment: map[string]*g5k.Equipment{gw: {UID: gw, Kind: "router", BackplaneBps: 4e10}},
		}
		// Aggregation switches with uplinks to the gateway.
		var switches []string
		for wi := 0; wi < rng.Intn(3); wi++ {
			sw := fmt.Sprintf("sw%d-%s", wi, sid)
			site.Equipment[sw] = &g5k.Equipment{
				UID: sw, Kind: "switch", BackplaneBps: 2e10,
				Uplinks: []g5k.Uplink{{To: gw, RateBps: 1e10}},
			}
			switches = append(switches, sw)
		}
		nClusters := 1 + rng.Intn(3)
		for ci := 0; ci < nClusters; ci++ {
			cid := fmt.Sprintf("c%d%s", ci, sid)
			cluster := &g5k.Cluster{
				UID: cid, GFlops: 8 + float64(rng.Float64()*8),
				Nodes: map[string]*g5k.Node{}, NodeClass: "default",
			}
			// All nodes of a cluster plug into one equipment.
			attach := site.Gateway
			if len(switches) > 0 && rng.Intn(2) == 0 {
				attach = switches[rng.Intn(len(switches))]
			}
			rate := []float64{1e9, 1e10}[rng.Intn(2)]
			for ni := 0; ni < 2+rng.Intn(4); ni++ {
				nid := fmt.Sprintf("%s-%d", cid, ni+1)
				cluster.Nodes[nid] = &g5k.Node{
					UID: nid,
					Interfaces: []g5k.Interface{{
						Device: "eth0", RateBps: rate, Switch: attach,
					}},
				}
			}
			site.Clusters[cid] = cluster
		}
		ref.Sites[sid] = site
		gws = append(gws, gw)
	}
	// Backbone: either a gateway chain or a star through a hub.
	if rng.Intn(2) == 0 {
		ref.Hubs = []string{"hub0"}
		for i, gw := range gws {
			ref.Backbone = append(ref.Backbone, &g5k.BackboneLink{
				ID: fmt.Sprintf("bb%d", i), From: gw, To: "hub0",
				RateBps: 1e10, LatencyS: 1e-3 + float64(rng.Float64()*4e-3),
			})
		}
	} else {
		for i := 0; i+1 < len(gws); i++ {
			ref.Backbone = append(ref.Backbone, &g5k.BackboneLink{
				ID: fmt.Sprintf("bb%d", i), From: gws[i], To: gws[i+1],
				RateBps: 1e10, LatencyS: 1e-3 + float64(rng.Float64()*4e-3),
			})
		}
	}
	return ref
}

// TestSnapshotMatchesReferenceRandomPlatforms is the route-identity half
// of platgen's snapshot differential test: over randomized platgen
// platforms (the same 12 seeds, both flavours), every host-pair route
// resolved through the compiled Snapshot must be bit-identical to the
// reference resolver's.
func TestSnapshotMatchesReferenceRandomPlatforms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := randomReference(rng)
		variant := []platgen.Variant{platgen.G5KTest, platgen.G5KCabinets}[seed%2]
		plat, err := platgen.Generate(ref, platgen.Options{Variant: variant})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap := plat.Snapshot()

		hosts := plat.Hosts()
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				want, errW := platform.RefRouteBetween(plat, a.ID, b.ID)
				got, errG := snap.Route(a.ID, b.ID)
				if (errW == nil) != (errG == nil) {
					t.Fatalf("seed %d %s->%s: RefRouteBetween err=%v Snapshot err=%v", seed, a.ID, b.ID, errW, errG)
				}
				if errW != nil {
					continue
				}
				if err := platform.RouteMismatch(snap, want, got); err != nil {
					t.Fatalf("seed %d %s->%s: %v", seed, a.ID, b.ID, err)
				}
			}
		}
	}
}
