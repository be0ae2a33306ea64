package platgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

// randomReference synthesizes a valid Grid'5000-style reference: 2-4
// sites, each with a gateway router, optional aggregation switches, 1-3
// clusters of 2-5 nodes, and a backbone chaining the gateways through an
// optional hub.
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

// TestSnapshotDifferentialRandomPlatforms is the snapshot-equivalence
// property test: over randomized platgen platforms (both flavours),
// forecast results must be bit-identical across (a) an independent
// platform generated again from the same seed and compiled on its own and
// (b) a WithLinkState round trip back to the original values. Its route-identity half, every host-pair route against the
// reference resolver on the same seeds, is
// platform.TestSnapshotMatchesReferenceRandomPlatforms.
func TestSnapshotDifferentialRandomPlatforms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := randomReference(rng)
		variant := []Variant{G5KTest, G5KCabinets}[seed%2]
		plat, err := Generate(ref, Options{Variant: variant})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		snap := plat.Snapshot()
		hosts := plat.Hosts()

		// Forecast equivalence: the same workload through the engine on
		// (1) the platform's snapshot, (2) the snapshot of a second
		// Generate of the same reference, (3) a WithLinkState round trip —
		// all bit-identical.
		var reqs []pilgrim.TransferRequest
		for k := 0; k < 6 && k < len(hosts)/2; k++ {
			reqs = append(reqs, pilgrim.TransferRequest{
				Src: hosts[rng.Intn(len(hosts))].ID, Dst: hosts[rng.Intn(len(hosts))].ID,
				Size: 1e6 + float64(rng.Float64()*1e9),
			})
		}
		for i := range reqs {
			for reqs[i].Src == reqs[i].Dst {
				reqs[i].Dst = hosts[rng.Intn(len(hosts))].ID
			}
		}
		cfg := sim.DefaultConfig()
		base, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: plat, Config: cfg, Snapshot: snap}, reqs, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		twin, err := Generate(ref, Options{Variant: variant})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		recompiled, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: twin, Config: cfg, Snapshot: twin.Snapshot()}, reqs, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Round-trip: revise a few random links, then restore the exact
		// original values.
		var ups, downs []platform.LinkUpdate
		for k := 0; k < 3; k++ {
			li := int32(rng.Intn(snap.NumLinks()))
			name := snap.LinkName(li)
			ups = append(ups, platform.LinkUpdate{Link: name, Bandwidth: 1e6, Latency: 0.05})
			downs = append(downs, platform.LinkUpdate{Link: name, Bandwidth: snap.LinkBandwidth(li), Latency: snap.LinkLatency(li)})
		}
		bumped, err := snap.WithLinkState(ups)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		restored, err := bumped.WithLinkState(downs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		roundTrip, err := pilgrim.PredictTransfers(pilgrim.PlatformEntry{Platform: plat, Config: cfg, Snapshot: restored}, reqs, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range base {
			if math.Float64bits(base[i].Duration) != math.Float64bits(recompiled[i].Duration) {
				t.Fatalf("seed %d transfer %d: recompiled duration %v != %v", seed, i, recompiled[i].Duration, base[i].Duration)
			}
			if math.Float64bits(base[i].Duration) != math.Float64bits(roundTrip[i].Duration) {
				t.Fatalf("seed %d transfer %d: round-trip duration %v != %v", seed, i, roundTrip[i].Duration, base[i].Duration)
			}
		}
	}
}
