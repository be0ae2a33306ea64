package g5k

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	r := Default()
	if err := r.Validate(); err != nil {
		t.Fatalf("Default dataset invalid: %v", err)
	}
}

func TestMiniValidates(t *testing.T) {
	if err := Mini().Validate(); err != nil {
		t.Fatalf("Mini dataset invalid: %v", err)
	}
}

func TestPaperTopologyShapes(t *testing.T) {
	r := Default()
	// Paper §V-B1: sagittaire has 79 nodes, flat on the Lyon router.
	sag := r.Sites["lyon"].Clusters["sagittaire"]
	if len(sag.Nodes) != 79 {
		t.Errorf("sagittaire nodes = %d, want 79", len(sag.Nodes))
	}
	for _, n := range sag.Nodes {
		if n.Interfaces[0].Switch != "gw-lyon" {
			t.Fatalf("sagittaire node %s not flat on gw-lyon", n.UID)
		}
		if n.Interfaces[0].RateBps != 1e9 {
			t.Fatalf("sagittaire node %s rate = %v", n.UID, n.Interfaces[0].RateBps)
		}
	}
	// Paper Fig. 2: graphene has 144 nodes in 4 groups on sgraphene1..4,
	// with the documented boundaries.
	gra := r.Sites["nancy"].Clusters["graphene"]
	if len(gra.Nodes) != 144 {
		t.Errorf("graphene nodes = %d, want 144", len(gra.Nodes))
	}
	wantSwitch := func(idx int) string {
		switch {
		case idx <= 39:
			return "sgraphene1"
		case idx <= 74:
			return "sgraphene2"
		case idx <= 104:
			return "sgraphene3"
		default:
			return "sgraphene4"
		}
	}
	for i := 1; i <= 144; i++ {
		uid := "graphene-" + itoa(i)
		n, ok := gra.Nodes[uid]
		if !ok {
			t.Fatalf("missing node %s", uid)
		}
		if got, want := n.Interfaces[0].Switch, wantSwitch(i); got != want {
			t.Errorf("%s on %s, want %s", uid, got, want)
		}
	}
	// Each aggregation switch uplinks at 10 Gb/s to gw-nancy.
	for _, sw := range []string{"sgraphene1", "sgraphene2", "sgraphene3", "sgraphene4"} {
		eq := r.Sites["nancy"].Equipment[sw]
		if eq == nil {
			t.Fatalf("missing equipment %s", sw)
		}
		if len(eq.Uplinks) != 1 || eq.Uplinks[0].To != "gw-nancy" || eq.Uplinks[0].RateBps != 10e9 {
			t.Errorf("%s uplinks = %+v", sw, eq.Uplinks)
		}
	}
	// Three sites, all gatewayed to the Paris hub at 10 Gb/s.
	if got := r.SiteIDs(); len(got) != 3 || got[0] != "lille" || got[1] != "lyon" || got[2] != "nancy" {
		t.Errorf("sites = %v", got)
	}
	if len(r.Backbone) != 3 {
		t.Errorf("backbone links = %d, want 3", len(r.Backbone))
	}
	for _, b := range r.Backbone {
		if b.RateBps != 10e9 {
			t.Errorf("backbone %s rate = %v, want 10e9", b.ID, b.RateBps)
		}
	}
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestNodeIDsNaturalOrder(t *testing.T) {
	r := Default()
	ids := r.Sites["lyon"].Clusters["sagittaire"].NodeIDs()
	if ids[0] != "sagittaire-1" || ids[1] != "sagittaire-2" {
		t.Errorf("first ids = %v", ids[:2])
	}
	// sagittaire-10 must come after sagittaire-9, not after sagittaire-1.
	pos := map[string]int{}
	for i, id := range ids {
		pos[id] = i
	}
	if pos["sagittaire-10"] != pos["sagittaire-9"]+1 {
		t.Errorf("natural ordering broken: 9 at %d, 10 at %d", pos["sagittaire-9"], pos["sagittaire-10"])
	}
}

func TestFQDN(t *testing.T) {
	if got := FQDN("sagittaire-1", "lyon"); got != "sagittaire-1.lyon.grid5000.fr" {
		t.Errorf("FQDN = %q", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := Default()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Validate(); err != nil {
		t.Fatalf("round-tripped reference invalid: %v", err)
	}
	if r2.NumNodes() != r.NumNodes() {
		t.Errorf("node count changed: %d vs %d", r2.NumNodes(), r.NumNodes())
	}
	if len(r2.Backbone) != len(r.Backbone) {
		t.Errorf("backbone changed")
	}
}

func TestValidateCatchesDanglingSwitch(t *testing.T) {
	r := Mini()
	r.Sites["lyon"].Clusters["sagittaire"].Nodes["sagittaire-1"].Interfaces[0].Switch = "ghost"
	if err := r.Validate(); err == nil {
		t.Fatal("dangling switch accepted")
	}
}

func TestValidateCatchesBadBackbone(t *testing.T) {
	r := Mini()
	r.Backbone[0].From = "gw-ghost"
	if err := r.Validate(); err == nil {
		t.Fatal("dangling backbone endpoint accepted")
	}
}

func TestValidateCatchesBadGateway(t *testing.T) {
	r := Mini()
	r.Sites["lyon"].Gateway = "ghost"
	if err := r.Validate(); err == nil {
		t.Fatal("dangling gateway accepted")
	}
}

func TestServerEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewServer(Default()))
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// /sites
	resp := get("/sites")
	var sites []string
	if err := json.NewDecoder(resp.Body).Decode(&sites); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sites) != 3 {
		t.Errorf("sites = %v", sites)
	}

	// /sites/lyon/clusters
	resp = get("/sites/lyon/clusters")
	var clusters []string
	if err := json.NewDecoder(resp.Body).Decode(&clusters); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(clusters) != 2 || clusters[0] != "capricorne" || clusters[1] != "sagittaire" {
		t.Errorf("lyon clusters = %v", clusters)
	}

	// /sites/nancy/clusters/graphene/nodes
	resp = get("/sites/nancy/clusters/graphene/nodes")
	var nodes []string
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nodes) != 144 || nodes[0] != "graphene-1" {
		t.Errorf("graphene nodes: len=%d first=%v", len(nodes), nodes[0])
	}

	// /backbone
	resp = get("/backbone")
	var bb []*BackboneLink
	if err := json.NewDecoder(resp.Body).Decode(&bb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(bb) != 3 {
		t.Errorf("backbone = %v", bb)
	}

	// 404s
	for _, path := range []string{"/sites/mars", "/sites/lyon/clusters/ghost", "/sites/mars/clusters"} {
		resp := get(path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s -> %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestFetch(t *testing.T) {
	srv := httptest.NewServer(NewServer(Mini()))
	defer srv.Close()
	ref, err := Fetch(nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Validate(); err != nil {
		t.Fatal(err)
	}
	if ref.NumNodes() != Mini().NumNodes() {
		t.Errorf("fetched node count = %d", ref.NumNodes())
	}
}

func TestFetchErrors(t *testing.T) {
	// Server that 500s.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := Fetch(nil, srv.URL); err == nil {
		t.Fatal("HTTP 500 accepted")
	}
	// Unreachable server.
	if _, err := Fetch(nil, "http://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable server accepted")
	}
}
