package platgen

import (
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
)

// TestRouteSymmetryProperty checks, over every host pair of the Mini
// dataset and both variants, that the reverse route mirrors the forward
// route: same links in reverse order, full-duplex directions flipped.
// Asymmetric routes would silently skew the sharing model.
func TestRouteSymmetryProperty(t *testing.T) {
	for _, variant := range []Variant{G5KTest, G5KCabinets} {
		p := genTest(t, g5k.Mini(), Options{Variant: variant})
		hosts := p.Hosts()
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				fwd, err := route(p, a.ID, b.ID)
				if err != nil {
					t.Fatalf("%v %s->%s: %v", variant, a.ID, b.ID, err)
				}
				rev, err := route(p, b.ID, a.ID)
				if err != nil {
					t.Fatalf("%v reverse %s->%s: %v", variant, b.ID, a.ID, err)
				}
				if len(fwd.Links) != len(rev.Links) {
					t.Fatalf("%v %s<->%s: lengths %d vs %d",
						variant, a.ID, b.ID, len(fwd.Links), len(rev.Links))
				}
				for i := range fwd.Links {
					f := fwd.Links[i]
					r := rev.Links[len(rev.Links)-1-i]
					if f.Link != r.Link {
						t.Fatalf("%v %s<->%s: link %d mismatch (%s vs %s)",
							variant, a.ID, b.ID, i, f.Link.ID, r.Link.ID)
					}
					if f.Link.Policy == platform.FullDuplex && r.Direction != f.Direction.Reverse() {
						t.Fatalf("%v %s<->%s: direction not mirrored on %s",
							variant, a.ID, b.ID, f.Link.ID)
					}
				}
				if fwd.Latency != rev.Latency {
					t.Fatalf("%v %s<->%s: latency asymmetric (%v vs %v)",
						variant, a.ID, b.ID, fwd.Latency, rev.Latency)
				}
			}
		}
	}
}

// TestGeneratedLatencyTermsAreHardcoded verifies the §IV-C2 behaviour:
// regardless of the reference's measured values, the default generator
// emits 1e-4 s intra-site and 2.25e-3 s backbone latencies.
func TestGeneratedLatencyTermsAreHardcoded(t *testing.T) {
	ref := g5k.Mini()
	// Tamper with the measured latencies; default options must ignore
	// them.
	for _, b := range ref.Backbone {
		b.LatencyS = 99
	}
	p := genTest(t, ref, Options{Variant: G5KTest})
	bb := p.Link("renater-lyon-paris")
	if bb == nil || bb.Latency != 2.25e-3 {
		t.Errorf("backbone latency = %v, want hardcoded 2.25e-3", bb.Latency)
	}
	nic := p.Link("sagittaire-1.lyon.grid5000.fr_nic")
	if nic == nil || nic.Latency != 1e-4 {
		t.Errorf("nic latency = %v, want hardcoded 1e-4", nic.Latency)
	}
}
