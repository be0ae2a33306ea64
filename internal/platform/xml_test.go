package platform

import (
	"bytes"
	"strings"
	"testing"
)

const sampleXML = `<?xml version='1.0'?>
<platform version="3">
  <AS id="AS_g5k" routing="Full">
    <link id="bb" bandwidth="1.25e9" latency="2.25e-3" sharing_policy="FULLDUPLEX"/>
    <AS id="AS_lyon" routing="Full">
      <host id="n1" power="4.8e9">
        <prop id="cluster" value="sagittaire"/>
        <prop id="site" value="lyon"/>
      </host>
      <host id="n2" power="4.8e9"/>
      <router id="gw.lyon"/>
      <link id="n1_nic" bandwidth="125000000" latency="1e-4" sharing_policy="SHARED"/>
      <link id="n2_nic" bandwidth="125000000" latency="1e-4" sharing_policy="SHARED"/>
      <route src="n1" dst="gw.lyon" symmetrical="YES"><link_ctn id="n1_nic"/></route>
      <route src="n2" dst="gw.lyon" symmetrical="YES"><link_ctn id="n2_nic"/></route>
      <route src="n1" dst="n2" symmetrical="YES">
        <link_ctn id="n1_nic"/><link_ctn id="n2_nic"/>
      </route>
    </AS>
    <AS id="AS_nancy" routing="Cluster">
      <host id="m1" power="1e10"/>
      <host id="m2" power="1e10"/>
      <router id="gw.nancy"/>
      <cluster_topology router="gw.nancy" private_bw="125000000" private_lat="1e-4" sharing_policy="SHARED"/>
    </AS>
    <ASroute src="AS_lyon" dst="AS_nancy" gw_src="gw.lyon" gw_dst="gw.nancy" symmetrical="YES">
      <link_ctn id="bb" direction="UP"/>
    </ASroute>
  </AS>
</platform>
`

func TestParseSample(t *testing.T) {
	p, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumHosts() != 4 {
		t.Errorf("hosts = %d, want 4", p.NumHosts())
	}
	h := p.Host("n1")
	if h == nil || h.Speed != 4.8e9 {
		t.Fatalf("host n1 wrong: %+v", h)
	}
	if h.Prop("cluster") != "sagittaire" {
		t.Errorf("prop missing: %v", h.Props)
	}
	r, err := snapshotRoute(p, "n1", "m2")
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{}
	for _, u := range r.Links {
		ids = append(ids, u.Link.ID)
	}
	want := "n1_nic,bb,m2_link"
	if strings.Join(ids, ",") != want {
		t.Errorf("cross route = %v, want %v", ids, want)
	}
	// Reverse must flip the full-duplex backbone direction.
	rev, err := snapshotRoute(p, "m2", "n1")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range rev.Links {
		if u.Link.ID == "bb" && u.Direction != Down {
			t.Errorf("backbone reverse direction = %v, want Down", u.Direction)
		}
	}
}

func TestParseRejectsUnknownLink(t *testing.T) {
	bad := `<?xml version='1.0'?>
<platform version="3">
  <AS id="root" routing="Full">
    <host id="a" power="1e9"/>
    <host id="b" power="1e9"/>
    <route src="a" dst="b"><link_ctn id="ghost"/></route>
  </AS>
</platform>`
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestParseRejectsMalformedXML(t *testing.T) {
	if _, err := Parse(strings.NewReader("<platform><AS id=")); err == nil {
		t.Fatal("malformed XML accepted")
	}
}

func TestParseRejectsBadNumbers(t *testing.T) {
	bad := `<?xml version='1.0'?>
<platform version="3">
  <AS id="root" routing="Full">
    <link id="l" bandwidth="fast" latency="1e-4"/>
  </AS>
</platform>`
	if _, err := Parse(strings.NewReader(bad)); err == nil {
		t.Fatal("bad bandwidth accepted")
	}
}

// Round-trip property: parse(write(p)) preserves hosts, links, and all
// pairwise routes.
func TestXMLRoundTrip(t *testing.T) {
	p1, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p1.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parsing serialized platform: %v\n%s", err, buf.String())
	}
	if p1.NumHosts() != p2.NumHosts() {
		t.Fatalf("host count changed: %d vs %d", p1.NumHosts(), p2.NumHosts())
	}
	if p1.NumLinks() != p2.NumLinks() {
		t.Fatalf("link count changed: %d vs %d", p1.NumLinks(), p2.NumLinks())
	}
	for _, a := range p1.Hosts() {
		for _, b := range p1.Hosts() {
			if a == b {
				continue
			}
			r1, err := p1.refRouteBetween(a.ID, b.ID)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := p2.refRouteBetween(a.ID, b.ID)
			if err != nil {
				t.Fatalf("route %s->%s lost after round trip: %v", a.ID, b.ID, err)
			}
			if len(r1.Links) != len(r2.Links) {
				t.Errorf("route %s->%s length changed: %d vs %d", a.ID, b.ID, len(r1.Links), len(r2.Links))
				continue
			}
			for i := range r1.Links {
				if r1.Links[i].Link.ID != r2.Links[i].Link.ID {
					t.Errorf("route %s->%s link %d: %s vs %s", a.ID, b.ID, i,
						r1.Links[i].Link.ID, r2.Links[i].Link.ID)
				}
				if r1.Links[i].Direction != r2.Links[i].Direction {
					t.Errorf("route %s->%s dir %d changed", a.ID, b.ID, i)
				}
			}
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	p, err := Parse(strings.NewReader(sampleXML))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := p.WriteXML(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteXML(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("serialization not deterministic")
	}
}
