package platgen

import (
	"math"
	"strings"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

func genTest(t testing.TB, ref *g5k.Reference, opts Options) *platform.Platform {
	t.Helper()
	p, err := Generate(ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGenerateTestVariantMini(t *testing.T) {
	p := genTest(t, g5k.Mini(), Options{Variant: G5KTest})
	if p.NumHosts() != 14 { // 6 sagittaire + 8 graphene
		t.Errorf("hosts = %d, want 14", p.NumHosts())
	}
	requireRoutes(t, p, 0)
}

func TestGenerateFullDataset(t *testing.T) {
	ref := g5k.Default()
	p := genTest(t, ref, Options{Variant: G5KTest})
	if p.NumHosts() != ref.NumNodes() {
		t.Errorf("hosts = %d, want %d", p.NumHosts(), ref.NumNodes())
	}
	// Spot-check routes rather than all ~266k pairs.
	requireRoutes(t, p, 40)
}

func TestIntraClusterRouteFlat(t *testing.T) {
	// sagittaire is flat: two nodes' route is just the two NICs.
	p := genTest(t, g5k.Mini(), Options{Variant: G5KTest})
	r, err := route(p, "sagittaire-1.lyon.grid5000.fr", "sagittaire-2.lyon.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 2 {
		ids := routeIDs(r)
		t.Fatalf("flat intra-cluster route = %v, want 2 NICs", ids)
	}
	if math.Abs(r.Latency-2e-4) > 1e-12 {
		t.Errorf("latency = %v, want 2e-4 (hardcoded 1e-4 per link)", r.Latency)
	}
}

func TestIntraClusterRouteGrouped(t *testing.T) {
	// graphene-1 (sgraphene1) to graphene-5 (sgraphene2) in Mini crosses
	// both uplinks: nic, up1, up2, nic = 4 links.
	p := genTest(t, g5k.Mini(), Options{Variant: G5KTest})
	r, err := route(p, "graphene-1.nancy.grid5000.fr", "graphene-5.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	ids := routeIDs(r)
	if len(r.Links) != 4 {
		t.Fatalf("cross-group route = %v, want 4 links", ids)
	}
	if !strings.Contains(strings.Join(ids, ","), "sgraphene1_gw-nancy") {
		t.Errorf("route misses uplink: %v", ids)
	}
	// Same group: NICs only (non-blocking switch).
	r2, err := route(p, "graphene-1.nancy.grid5000.fr", "graphene-2.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Links) != 2 {
		t.Errorf("same-group route = %v, want 2 links", routeIDs(r2))
	}
}

func TestCrossSiteRoute(t *testing.T) {
	p := genTest(t, g5k.Mini(), Options{Variant: G5KTest})
	r, err := route(p, "sagittaire-1.lyon.grid5000.fr", "graphene-1.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	ids := strings.Join(routeIDs(r), ",")
	// nic, two backbone segments via Paris, downlink, nic.
	for _, want := range []string{"sagittaire-1.lyon.grid5000.fr_nic", "renater-lyon-paris", "renater-nancy-paris", "sgraphene1_gw-nancy", "graphene-1.nancy.grid5000.fr_nic"} {
		if !strings.Contains(ids, want) {
			t.Errorf("cross-site route %v misses %s", ids, want)
		}
	}
	// Hardcoded backbone latency: 2 segments * 2.25e-3 + intra legs.
	wantLat := 2*2.25e-3 + 3*1e-4
	if math.Abs(r.Latency-wantLat) > 1e-9 {
		t.Errorf("latency = %v, want %v", r.Latency, wantLat)
	}
}

func TestMeasuredLatenciesOption(t *testing.T) {
	p := genTest(t, g5k.Mini(), Options{Variant: G5KTest, UseMeasuredLatencies: true})
	r, err := route(p, "sagittaire-1.lyon.grid5000.fr", "graphene-1.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	// Mini dataset: lyon-paris 2.4e-3, nancy-paris 1.7e-3.
	wantLat := 2.4e-3 + 1.7e-3 + 3*1e-4
	if math.Abs(r.Latency-wantLat) > 1e-9 {
		t.Errorf("latency = %v, want %v", r.Latency, wantLat)
	}
}

func TestAccessLinksAreSharedHalfDuplex(t *testing.T) {
	// The paper's generator emitted SHARED access/aggregation links; the
	// backbone is full-duplex.
	p := genTest(t, g5k.Mini(), Options{Variant: G5KTest})
	nic := p.Link("sagittaire-1.lyon.grid5000.fr_nic")
	if nic == nil || nic.Policy != platform.Shared {
		t.Errorf("NIC policy = %v, want Shared", nic)
	}
	up := p.Link("sgraphene1_gw-nancy")
	if up == nil || up.Policy != platform.Shared {
		t.Errorf("uplink policy = %v, want Shared", up)
	}
	bb := p.Link("renater-lyon-paris")
	if bb == nil || bb.Policy != platform.FullDuplex {
		t.Errorf("backbone policy = %v, want FullDuplex", bb)
	}
	if up.Bandwidth != 10e9/8 {
		t.Errorf("uplink bandwidth = %v B/s, want 1.25e9", up.Bandwidth)
	}
}

func TestEquipmentLimitsOption(t *testing.T) {
	ref := g5k.Mini()
	base := genTest(t, ref, Options{Variant: G5KTest})
	lim := genTest(t, ref, Options{Variant: G5KTest, EquipmentLimits: true})
	if lim.NumLinks() <= base.NumLinks() {
		t.Errorf("EquipmentLimits added no links: %d vs %d", lim.NumLinks(), base.NumLinks())
	}
	if lim.Link("gw-nancy_backplane") == nil {
		t.Error("missing gw-nancy backplane link")
	}
	// A same-group graphene route passes through its switch backplane.
	r, err := route(lim, "graphene-1.nancy.grid5000.fr", "graphene-2.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(routeIDs(r), ","), "sgraphene1_backplane") {
		t.Errorf("route misses backplane: %v", routeIDs(r))
	}
	// No duplicate link in any sampled route (regression for the
	// gateway-endpoint case).
	hosts := lim.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			rr, err := route(lim, a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, u := range rr.Links {
				if seen[u.Link.ID] {
					t.Fatalf("duplicate link %s in route %s->%s: %v", u.Link.ID, a.ID, b.ID, routeIDs(rr))
				}
				seen[u.Link.ID] = true
			}
		}
	}
}

func TestGenerateCabinets(t *testing.T) {
	ref := g5k.Mini()
	p := genTest(t, ref, Options{Variant: G5KCabinets})
	if p.NumHosts() != ref.NumNodes() {
		t.Errorf("hosts = %d, want %d", p.NumHosts(), ref.NumNodes())
	}
	requireRoutes(t, p, 0)
	// Abstraction: graphene's intra-cluster cross-group route goes
	// through the aggregated cluster backbone, not individual uplinks.
	r, err := route(p, "graphene-1.nancy.grid5000.fr", "graphene-5.nancy.grid5000.fr")
	if err != nil {
		t.Fatal(err)
	}
	ids := strings.Join(routeIDs(r), ",")
	if !strings.Contains(ids, "graphene_bb") {
		t.Errorf("cabinets route misses cluster backbone: %v", ids)
	}
	if strings.Contains(ids, "sgraphene1") {
		t.Errorf("cabinets route should not model aggregation switches: %v", ids)
	}
}

func TestCabinetsLosesAggregationBottleneck(t *testing.T) {
	// The graphene_bb aggregate (2x10G in Mini) is wider than one uplink:
	// the abstraction underestimates contention. Compare worst-case
	// cross-group capacity.
	ref := g5k.Mini()
	test := genTest(t, ref, Options{Variant: G5KTest})
	cab := genTest(t, ref, Options{Variant: G5KCabinets})
	up := test.Link("sgraphene1_gw-nancy")
	bb := cab.Link("graphene_bb")
	if up == nil || bb == nil {
		t.Fatal("missing links")
	}
	if bb.Bandwidth <= up.Bandwidth {
		t.Errorf("cluster bb %v should exceed single uplink %v", bb.Bandwidth, up.Bandwidth)
	}
}

func TestFlatVariant(t *testing.T) {
	ref := g5k.Mini()
	p := genTest(t, ref, Options{Variant: G5KTest, Flat: true})
	if p.NumHosts() != ref.NumNodes() {
		t.Errorf("hosts = %d", p.NumHosts())
	}
	if len(p.Root().Children()) != 0 {
		t.Error("flat platform should have no child AS")
	}
	requireRoutes(t, p, 0)
	// Flat and hierarchical must resolve identical link sequences.
	h := genTest(t, ref, Options{Variant: G5KTest})
	for _, pair := range [][2]string{
		{"sagittaire-1.lyon.grid5000.fr", "sagittaire-3.lyon.grid5000.fr"},
		{"graphene-1.nancy.grid5000.fr", "graphene-6.nancy.grid5000.fr"},
		{"sagittaire-2.lyon.grid5000.fr", "graphene-7.nancy.grid5000.fr"},
	} {
		rf, err := route(p, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		rh, err := route(h, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(routeIDs(rf), ",") != strings.Join(routeIDs(rh), ",") {
			t.Errorf("%v: flat %v vs hier %v", pair, routeIDs(rf), routeIDs(rh))
		}
	}
}

func TestHostProperties(t *testing.T) {
	p := genTest(t, g5k.Mini(), Options{Variant: G5KTest})
	h := p.Host("graphene-1.nancy.grid5000.fr")
	if h == nil {
		t.Fatal("missing host")
	}
	if h.Prop("cluster") != "graphene" || h.Prop("site") != "nancy" || h.Prop("class") != "xeon2010" {
		t.Errorf("props = %v", h.Props)
	}
	if h.Prop("switch") != "sgraphene1" {
		t.Errorf("switch prop = %q", h.Prop("switch"))
	}
	if h.Speed != 10.1e9 {
		t.Errorf("speed = %v", h.Speed)
	}
	sag := p.HostsWhere("cluster", "sagittaire")
	if len(sag) != 6 {
		t.Errorf("sagittaire hosts = %d", len(sag))
	}
}

func TestInvalidReferenceRejected(t *testing.T) {
	ref := g5k.Mini()
	ref.Sites["lyon"].Gateway = "ghost"
	if _, err := Generate(ref, Options{}); err == nil {
		t.Fatal("invalid reference accepted")
	}
}

// TestSimulationOnGeneratedPlatform is the cross-package integration
// check: simulate the paper's worked example on the *generated* g5k_test
// platform (capricorne-36 -> griffon-50 and capricorne-1). The absolute
// durations differ from the handcrafted §IV-C2 topology (the generated
// backbone goes through Paris, doubling the hardcoded latency), but the
// qualitative result must hold: the intra-site transfer is much faster.
func TestSimulationOnGeneratedPlatform(t *testing.T) {
	p := genTest(t, g5k.Default(), Options{Variant: G5KTest})
	cfg := sim.DefaultConfig()
	cfg.GammaUsesLatencyFactor = true
	res, err := sim.Predict(p, cfg, []sim.Transfer{
		{Src: "capricorne-36.lyon.grid5000.fr", Dst: "griffon-50.nancy.grid5000.fr", Size: 5e8},
		{Src: "capricorne-36.lyon.grid5000.fr", Dst: "capricorne-1.lyon.grid5000.fr", Size: 5e8},
	})
	if err != nil {
		t.Fatal(err)
	}
	cross, intra := res[0].Duration, res[1].Duration
	if intra >= cross/2 {
		t.Errorf("intra %.3f s should be well below cross %.3f s", intra, cross)
	}
	if intra < 4 || intra > 6 {
		t.Errorf("intra duration %.3f s outside plausible band [4,6]", intra)
	}
}

// resolved is a route resolved through a platform's snapshot, in builder
// form.
type resolved struct {
	Links   []platform.LinkUse
	Latency float64
}

// route resolves src->dst through p's snapshot.
func route(p *platform.Platform, src, dst string) (resolved, error) {
	s := p.Snapshot()
	r, err := s.Route(src, dst)
	if err != nil {
		return resolved{}, err
	}
	return resolved{Links: s.ExpandRoute(r), Latency: r.Latency}, nil
}

// requireRoutes resolves every ordered pair of p's hosts through its
// snapshot, or of sample hosts when sample > 0 and p has more. The sample
// strides across the sorted host list: the first N names would all come
// from one cluster (names sort by cluster) and skip every inter-cluster
// and inter-site route.
func requireRoutes(t *testing.T, p *platform.Platform, sample int) {
	t.Helper()
	hosts := p.Hosts()
	if sample > 0 && len(hosts) > sample {
		sampled := make([]*platform.Host, sample)
		for i := range sampled {
			sampled[i] = hosts[i*len(hosts)/sample]
		}
		hosts = sampled
	}
	s := p.Snapshot()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if _, err := s.Route(a.ID, b.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func routeIDs(r resolved) []string {
	out := make([]string, len(r.Links))
	for i, u := range r.Links {
		out[i] = u.Link.ID
	}
	return out
}

func BenchmarkGenerateG5KTest(b *testing.B) {
	ref := g5k.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(ref, Options{Variant: G5KTest}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateG5KCabinets(b *testing.B) {
	ref := g5k.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(ref, Options{Variant: G5KCabinets}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateFlat(b *testing.B) {
	ref := g5k.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(ref, Options{Variant: G5KTest, Flat: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNamedPlatforms: ParseVariant inverts String, and Named builds
// g5k_mini from the mini reference and every other name from the one
// given.
func TestNamedPlatforms(t *testing.T) {
	for _, v := range []Variant{G5KTest, G5KCabinets} {
		if got, ok := ParseVariant(v.String()); !ok || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v, got, ok)
		}
	}
	ref := g5k.Default()
	for name, want := range map[string]Variant{"g5k_test": G5KTest, "g5k_cabinets": G5KCabinets} {
		if got, v, ok := Named(name, ref); !ok || got != ref || v != want {
			t.Errorf("Named(%q) = %p, %v, %v", name, got, v, ok)
		}
	}
	mini, v, ok := Named("g5k_mini", ref)
	if !ok || v != G5KTest || len(mini.Sites) != len(g5k.Mini().Sites) || mini == ref {
		t.Errorf("Named(g5k_mini) = %d sites, %v, %v", len(mini.Sites), v, ok)
	}
	for _, name := range []string{"", "g5k_mini2", "Variant(0)"} {
		if _, ok := ParseVariant(name); ok {
			t.Errorf("ParseVariant(%q) accepted", name)
		}
		if _, _, ok := Named(name, ref); ok {
			t.Errorf("Named(%q) accepted", name)
		}
	}
}
