package platform

import (
	"math"
	"strings"
	"testing"
)

// buildTwoSitePlatform builds a miniature Grid'5000: two sites (ASes),
// each a star of hosts around a gateway router, joined by a backbone.
func buildTwoSitePlatform(t *testing.T) *Platform {
	t.Helper()
	p := New("AS_g5k", RoutingFull)
	root := p.Root()

	lyon, err := root.AddAS("AS_lyon", RoutingFull)
	if err != nil {
		t.Fatal(err)
	}
	nancy, err := root.AddAS("AS_nancy", RoutingFull)
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []struct {
		as     *AS
		gw     string
		prefix string
	}{
		{lyon, "gw.lyon", "sagittaire"},
		{nancy, "gw.nancy", "graphene"},
	} {
		if _, err := site.as.AddRouter(site.gw); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			name := site.prefix + "-" + string(rune('0'+i))
			if _, err := site.as.AddHost(name, 1e9); err != nil {
				t.Fatal(err)
			}
			l, err := site.as.AddLink(name+"_nic", 125e6, 1e-4, Shared)
			if err != nil {
				t.Fatal(err)
			}
			if err := site.as.AddRoute(name, site.gw, []LinkUse{{Link: l, Direction: Up}}, true); err != nil {
				t.Fatal(err)
			}
		}
		// host<->host routes inside the site via both NICs.
		for i := 1; i <= 3; i++ {
			for j := 1; j <= 3; j++ {
				if i == j {
					continue
				}
				a := site.prefix + "-" + string(rune('0'+i))
				b := site.prefix + "-" + string(rune('0'+j))
				la := p.Link(a + "_nic")
				lb := p.Link(b + "_nic")
				if err := site.as.AddRoute(a, b, []LinkUse{{la, Up}, {lb, Down}}, false); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	bb, err := root.AddLink("bb_lyon_nancy", 1.25e9, 2.25e-3, FullDuplex)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.AddASRoute("AS_lyon", "gw.lyon", "AS_nancy", "gw.nancy",
		[]LinkUse{{bb, Up}}, true); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIntraSiteRoute(t *testing.T) {
	p := buildTwoSitePlatform(t)
	r, err := p.RouteBetween("sagittaire-1", "sagittaire-2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 2 {
		t.Fatalf("route length = %d, want 2", len(r.Links))
	}
	if r.Links[0].Link.ID != "sagittaire-1_nic" || r.Links[1].Link.ID != "sagittaire-2_nic" {
		t.Errorf("unexpected links %v -> %v", r.Links[0].Link.ID, r.Links[1].Link.ID)
	}
	if math.Abs(r.Latency-2e-4) > 1e-12 {
		t.Errorf("latency = %v, want 2e-4", r.Latency)
	}
}

func TestCrossSiteRouteSplicesGateways(t *testing.T) {
	p := buildTwoSitePlatform(t)
	r, err := p.RouteBetween("sagittaire-1", "graphene-2")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(r.Links))
	for i, u := range r.Links {
		ids[i] = u.Link.ID
	}
	want := []string{"sagittaire-1_nic", "bb_lyon_nancy", "graphene-2_nic"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Errorf("route = %v, want %v", ids, want)
	}
	if math.Abs(r.Latency-(1e-4+2.25e-3+1e-4)) > 1e-12 {
		t.Errorf("latency = %v", r.Latency)
	}
}

func TestReverseRouteFlipsDirections(t *testing.T) {
	p := buildTwoSitePlatform(t)
	fwd, err := p.RouteBetween("sagittaire-1", "graphene-2")
	if err != nil {
		t.Fatal(err)
	}
	rev, err := p.RouteBetween("graphene-2", "sagittaire-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd.Links) != len(rev.Links) {
		t.Fatalf("asymmetric lengths %d vs %d", len(fwd.Links), len(rev.Links))
	}
	for i := range fwd.Links {
		f := fwd.Links[i]
		r := rev.Links[len(rev.Links)-1-i]
		if f.Link != r.Link {
			t.Errorf("link mismatch at %d: %s vs %s", i, f.Link.ID, r.Link.ID)
		}
		if f.Link.Policy == FullDuplex && f.Direction != r.Direction.Reverse() {
			t.Errorf("direction not flipped on %s", f.Link.ID)
		}
	}
}

func TestRouteToSelfFails(t *testing.T) {
	p := buildTwoSitePlatform(t)
	if _, err := p.RouteBetween("sagittaire-1", "sagittaire-1"); err == nil {
		t.Fatal("expected error for self route")
	}
}

func TestUnknownEndpointFails(t *testing.T) {
	p := buildTwoSitePlatform(t)
	if _, err := p.RouteBetween("sagittaire-1", "nonexistent"); err == nil {
		t.Fatal("expected error for unknown endpoint")
	}
}

func TestMissingRouteFails(t *testing.T) {
	p := New("root", RoutingFull)
	a, _ := p.Root().AddHost("a", 1e9)
	b, _ := p.Root().AddHost("b", 1e9)
	_, _ = a, b
	if _, err := p.RouteBetween("a", "b"); err == nil {
		t.Fatal("expected error for missing route")
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	p := New("root", RoutingFull)
	if _, err := p.Root().AddHost("x", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Root().AddHost("x", 1e9); err == nil {
		t.Fatal("duplicate host accepted")
	}
	if _, err := p.Root().AddRouter("x"); err == nil {
		t.Fatal("router with host's name accepted")
	}
	if _, err := p.Root().AddLink("l", 1, 0, Shared); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Root().AddLink("l", 1, 0, Shared); err == nil {
		t.Fatal("duplicate link accepted")
	}
}

func TestInvalidLinkParamsRejected(t *testing.T) {
	p := New("root", RoutingFull)
	if _, err := p.Root().AddLink("bad", -1, 0, Shared); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if _, err := p.Root().AddLink("bad2", 1, -1, Shared); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestClusterRouting(t *testing.T) {
	p := New("cluster", RoutingCluster)
	as := p.Root()
	if _, err := as.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"n1", "n2", "n3"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	bb, err := as.AddLink("bb", 1.25e9, 1e-5, Shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.SetClusterTopology("sw", 125e6, 1e-4, Shared, bb); err != nil {
		t.Fatal(err)
	}

	r, err := p.RouteBetween("n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 3 {
		t.Fatalf("cluster route length = %d, want 3", len(r.Links))
	}
	if r.Links[0].Link.ID != "n1_link" || r.Links[1].Link.ID != "bb" || r.Links[2].Link.ID != "n2_link" {
		t.Errorf("unexpected cluster route %v %v %v",
			r.Links[0].Link.ID, r.Links[1].Link.ID, r.Links[2].Link.ID)
	}
	if r.Links[0].Direction != Up || r.Links[2].Direction != Down {
		t.Errorf("directions wrong: %v, %v", r.Links[0].Direction, r.Links[2].Direction)
	}

	// Host to the cluster router: private link + backbone only.
	r2, err := p.RouteBetween("n3", "sw")
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Links) != 2 {
		t.Fatalf("host->router length = %d, want 2", len(r2.Links))
	}
}

func TestClusterRoutingNoBackbone(t *testing.T) {
	p := New("cluster", RoutingCluster)
	as := p.Root()
	if _, err := as.AddRouter("sw"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.SetClusterTopology("sw", 125e6, 1e-4, Shared, nil); err != nil {
		t.Fatal(err)
	}
	r, err := p.RouteBetween("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 2 {
		t.Fatalf("length = %d, want 2 (no backbone)", len(r.Links))
	}
}

func TestFloydRouting(t *testing.T) {
	// Line topology a - m1 - m2 - b with distinct links; Floyd must chain
	// them.
	p := New("floyd", RoutingFloyd)
	as := p.Root()
	for _, n := range []string{"m1", "m2"} {
		if _, err := as.AddRouter(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"a", "b"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	l1, _ := as.AddLink("l1", 1e8, 1e-4, Shared)
	l2, _ := as.AddLink("l2", 1e8, 1e-4, Shared)
	l3, _ := as.AddLink("l3", 1e8, 1e-4, Shared)
	if err := as.AddRoute("a", "m1", []LinkUse{{l1, Up}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("m1", "m2", []LinkUse{{l2, Up}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("m2", "b", []LinkUse{{l3, Up}}, true); err != nil {
		t.Fatal(err)
	}

	r, err := p.RouteBetween("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 3 {
		t.Fatalf("floyd route length = %d, want 3", len(r.Links))
	}
	if math.Abs(r.Latency-3e-4) > 1e-12 {
		t.Errorf("latency = %v", r.Latency)
	}

	// Reverse direction must also resolve (symmetrical edges).
	rrev, err := p.RouteBetween("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(rrev.Links) != 3 {
		t.Fatalf("reverse length = %d", len(rrev.Links))
	}
	if rrev.Links[0].Link != l3 || rrev.Links[2].Link != l1 {
		t.Error("reverse path not mirrored")
	}
}

func TestFloydPicksShortestPath(t *testing.T) {
	// Triangle: a-b direct (high latency) vs a-r-b (two low-latency hops).
	p := New("floyd", RoutingFloyd)
	as := p.Root()
	if _, err := as.AddRouter("r"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, err := as.AddHost(n, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	direct, _ := as.AddLink("direct", 1e8, 5e-3, Shared)
	h1, _ := as.AddLink("h1", 1e8, 1e-4, Shared)
	h2, _ := as.AddLink("h2", 1e8, 1e-4, Shared)
	if err := as.AddRoute("a", "b", []LinkUse{{direct, None}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("a", "r", []LinkUse{{h1, None}}, true); err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("r", "b", []LinkUse{{h2, None}}, true); err != nil {
		t.Fatal(err)
	}
	r, err := p.RouteBetween("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 2 || r.Links[0].Link != h1 || r.Links[1].Link != h2 {
		ids := []string{}
		for _, u := range r.Links {
			ids = append(ids, u.Link.ID)
		}
		t.Errorf("picked %v, want [h1 h2]", ids)
	}
}

// TestRouteCacheInvalidation checks that a mutation is visible at once:
// RouteBetween memoizes nothing, and the snapshot memo is dropped.
func TestRouteCacheInvalidation(t *testing.T) {
	p := buildTwoSitePlatform(t)
	s := p.Snapshot()
	lyon := p.Root().Children()[0]
	if _, err := lyon.AddHost("sagittaire-4", 1e9); err != nil {
		t.Fatal(err)
	}
	if p.Snapshot() == s {
		t.Fatal("snapshot memo not invalidated by mutation")
	}
	if _, err := p.RouteBetween("gw.lyon", "sagittaire-4"); err == nil {
		t.Fatal("route resolved before it was declared")
	}
	l, err := lyon.AddLink("sagittaire-4_nic", 125e6, 1e-4, Shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := lyon.AddRoute("sagittaire-4", "gw.lyon", []LinkUse{{l, Up}}, true); err != nil {
		t.Fatal(err)
	}
	r, err := p.RouteBetween("gw.lyon", "sagittaire-4")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Links) != 1 || r.Links[0] != (LinkUse{l, Down}) {
		t.Fatalf("reverse of a fresh declaration = %+v", r.Links)
	}
	if _, err := p.Snapshot().Route("gw.lyon", "sagittaire-4"); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedDeclarationChangesNothing checks that a symmetric
// declaration whose reverse is already taken is refused as a whole: its
// forward half must reach neither RouteBetween, nor a recompiled
// snapshot, nor the XML export — for host routes and AS routes alike.
func TestRejectedDeclarationChangesNothing(t *testing.T) {
	p := buildTwoSitePlatform(t)
	root := p.Root()
	lyon := root.Children()[0]
	if _, err := lyon.AddHost("sagittaire-4", 1e9); err != nil {
		t.Fatal(err)
	}
	nic, err := lyon.AddLink("sagittaire-4_nic", 125e6, 1e-4, Shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := lyon.AddRoute("gw.lyon", "sagittaire-4", []LinkUse{{nic, Down}}, false); err != nil {
		t.Fatal(err)
	}
	rennes, err := root.AddAS("AS_rennes", RoutingFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rennes.AddRouter("gw.rennes"); err != nil {
		t.Fatal(err)
	}
	if _, err := rennes.AddHost("paravance-1", 1e9); err != nil {
		t.Fatal(err)
	}
	pnic, _ := rennes.AddLink("paravance-1_nic", 125e6, 1e-4, Shared)
	if err := rennes.AddRoute("paravance-1", "gw.rennes", []LinkUse{{pnic, Up}}, true); err != nil {
		t.Fatal(err)
	}
	bb, _ := root.AddLink("bb_rennes_lyon", 1.25e9, 3e-3, FullDuplex)
	if err := root.AddASRoute("AS_rennes", "gw.rennes", "AS_lyon", "gw.lyon", []LinkUse{{bb, Up}}, false); err != nil {
		t.Fatal(err)
	}

	var before strings.Builder
	if err := p.WriteXML(&before); err != nil {
		t.Fatal(err)
	}
	s := p.Snapshot()
	if err := lyon.AddRoute("sagittaire-4", "gw.lyon", []LinkUse{{nic, Up}}, true); err == nil {
		t.Fatal("symmetric route over a declared reverse accepted")
	}
	if err := root.AddASRoute("AS_lyon", "gw.lyon", "AS_rennes", "gw.rennes", []LinkUse{{bb, Down}}, true); err == nil {
		t.Fatal("symmetric ASroute over a declared reverse accepted")
	}

	var after strings.Builder
	if err := p.WriteXML(&after); err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Error("rejected declarations changed the XML export")
	}
	if p.Snapshot() != s {
		t.Fatal("rejected declarations dropped the snapshot memo")
	}
	p.InvalidateRouteCache()
	recompiled := p.Snapshot()
	for _, pair := range [][2]string{{"sagittaire-4", "gw.lyon"}, {"sagittaire-1", "paravance-1"}} {
		if r, err := p.RouteBetween(pair[0], pair[1]); err == nil {
			t.Errorf("RouteBetween %s->%s resolves a rejected declaration: %+v", pair[0], pair[1], r.Links)
		}
		if _, err := recompiled.Route(pair[0], pair[1]); err == nil {
			t.Errorf("Snapshot.Route %s->%s resolves a rejected declaration", pair[0], pair[1])
		}
	}
	// The declarations that were accepted still resolve.
	for _, pair := range [][2]string{{"gw.lyon", "sagittaire-4"}, {"paravance-1", "sagittaire-1"}} {
		if _, err := p.RouteBetween(pair[0], pair[1]); err != nil {
			t.Error(err)
		}
		if _, err := recompiled.Route(pair[0], pair[1]); err != nil {
			t.Error(err)
		}
	}
}

func TestHostProps(t *testing.T) {
	p := New("root", RoutingFull)
	h, _ := p.Root().AddHost("n", 1e9)
	h.Props = map[string]string{"cluster": "sagittaire", "site": "lyon"}
	if h.Prop("cluster") != "sagittaire" {
		t.Error("prop lookup failed")
	}
	if h.Prop("absent") != "" {
		t.Error("absent prop should be empty")
	}
	got := p.HostsWhere("site", "lyon")
	if len(got) != 1 || got[0] != h {
		t.Errorf("HostsWhere = %v", got)
	}
}

func TestValidateDetectsBadGateway(t *testing.T) {
	p := New("root", RoutingFull)
	root := p.Root()
	a, _ := root.AddAS("A", RoutingFull)
	b, _ := root.AddAS("B", RoutingFull)
	if _, err := a.AddHost("ha", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddHost("hb", 1e9); err != nil {
		t.Fatal(err)
	}
	l, _ := root.AddLink("l", 1e9, 0, Shared)
	// Gateway name that exists nowhere.
	if err := root.AddASRoute("A", "ghost", "B", "hb", []LinkUse{{l, None}}, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(0); err == nil {
		t.Fatal("Validate accepted dangling gateway")
	}
}

func TestValidatePasses(t *testing.T) {
	p := buildTwoSitePlatform(t)
	if err := p.Validate(0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestResolveAllHostPairs(t *testing.T) {
	p := buildTwoSitePlatform(t)
	st, err := p.ResolveAllHostPairs()
	if err != nil {
		t.Fatal(err)
	}
	// 6 hosts -> 30 ordered pairs.
	if st.Pairs != 30 {
		t.Errorf("pairs = %d, want 30", st.Pairs)
	}
	if st.AvgLength < 2 || st.AvgLength > 3 {
		t.Errorf("avg route length = %v, implausible", st.AvgLength)
	}
}

func TestSharingPolicyRoundTrip(t *testing.T) {
	for _, pol := range []SharingPolicy{Shared, FullDuplex, Fatpipe} {
		got, err := ParseSharingPolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("round trip %v failed: %v %v", pol, got, err)
		}
	}
	if _, err := ParseSharingPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestRoutingKindRoundTrip(t *testing.T) {
	for _, k := range []RoutingKind{RoutingFull, RoutingFloyd, RoutingCluster} {
		got, err := ParseRoutingKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParseRoutingKind("bogus"); err == nil {
		t.Error("bogus routing accepted")
	}
}

func TestDirectionReverse(t *testing.T) {
	if Up.Reverse() != Down || Down.Reverse() != Up || None.Reverse() != None {
		t.Error("Direction.Reverse broken")
	}
}
