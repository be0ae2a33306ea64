package platform

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteDelta classifies every resource by full scan — the reference for
// DiffSnapshots' page-skipping implementation.
func bruteDelta(base, derived *Snapshot) *EpochDelta {
	d := &EpochDelta{}
	for i := int32(0); i < int32(base.NumLinks()); i++ {
		if b, v := base.LinkBandwidth(i), derived.LinkBandwidth(i); b != v {
			if b == 0 || v == 0 {
				d.AvailLinks = append(d.AvailLinks, i)
			} else {
				d.BwLinks = append(d.BwLinks, i)
			}
		}
		if base.LinkLatency(i) != derived.LinkLatency(i) {
			d.LatLinks = append(d.LatLinks, i)
		}
	}
	for i := int32(0); i < int32(base.NumHosts()); i++ {
		if b, v := base.HostSpeed(i), derived.HostSpeed(i); b != v {
			if b == 0 || v == 0 {
				d.AvailHosts = append(d.AvailHosts, i)
			} else {
				d.SpeedHosts = append(d.SpeedHosts, i)
			}
		}
	}
	return d
}

func requireEqualDelta(t *testing.T, ctx string, got, want *EpochDelta) {
	t.Helper()
	pairs := [][2][]int32{
		{got.BwLinks, want.BwLinks},
		{got.LatLinks, want.LatLinks},
		{got.AvailLinks, want.AvailLinks},
		{got.SpeedHosts, want.SpeedHosts},
		{got.AvailHosts, want.AvailHosts},
	}
	names := []string{"BwLinks", "LatLinks", "AvailLinks", "SpeedHosts", "AvailHosts"}
	for i, p := range pairs {
		if !slices.Equal(p[0], p[1]) {
			t.Fatalf("%s: %s = %v, want %v", ctx, names[i], p[0], p[1])
		}
	}
}

// TestDiffSnapshotsMatchesFullScan drives random overlay chains — value
// changes, failures, revivals, multi-epoch derivations — over a platform
// spanning several state pages and checks the COW page-skipping diff
// against a full scan, in both directions.
func TestDiffSnapshotsMatchesFullScan(t *testing.T) {
	p := New("flat", RoutingFull)
	as := p.Root()
	nHosts, nLinks := statePageSize+9, 2*statePageSize+17
	for i := 0; i < nHosts; i++ {
		if _, err := as.AddHost(fmt.Sprintf("h%03d", i), 1e9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nLinks; i++ {
		if _, err := as.AddLink(fmt.Sprintf("l%03d", i), 1e8, 1e-4, Shared); err != nil {
			t.Fatal(err)
		}
	}
	base := p.Snapshot()

	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		derived := base
		for step := 0; step < 1+rng.Intn(3); step++ {
			var links []OverlayLink
			var hosts []OverlayHost
			seenL := map[int32]bool{}
			for i := 0; i < 1+rng.Intn(12); i++ {
				li := int32(rng.Intn(nLinks))
				if seenL[li] {
					continue
				}
				seenL[li] = true
				u := OverlayLink{Link: li, Bandwidth: math.NaN(), Latency: math.NaN()}
				switch rng.Intn(4) {
				case 0:
					u.Bandwidth = 0 // fail
				case 1:
					u.Bandwidth = 1e6 + float64(rng.Float64()*2e8)
				case 2:
					u.Latency = rng.Float64() * 1e-2
				case 3:
					u.Bandwidth = 1e6 + float64(rng.Float64()*2e8)
					u.Latency = rng.Float64() * 1e-2
				}
				links = append(links, u)
			}
			seenH := map[int32]bool{}
			for i := 0; i < rng.Intn(4); i++ {
				hi := int32(rng.Intn(nHosts))
				if seenH[hi] {
					continue
				}
				seenH[hi] = true
				speed := 0.0
				if rng.Intn(2) == 0 {
					speed = 1e8 + float64(rng.Float64()*1e9)
				}
				hosts = append(hosts, OverlayHost{Host: hi, Speed: speed})
			}
			next, err := derived.ApplyOverlay(links, hosts, "diff test")
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			derived = next
		}

		got, ok := DiffSnapshots(base, derived)
		if !ok {
			t.Fatalf("seed %d: same-topology snapshots reported incompatible", seed)
		}
		requireEqualDelta(t, fmt.Sprintf("seed %d forward", seed), got, bruteDelta(base, derived))

		back, ok := DiffSnapshots(derived, base)
		if !ok {
			t.Fatalf("seed %d: reverse diff not ok", seed)
		}
		requireEqualDelta(t, fmt.Sprintf("seed %d reverse", seed), back, bruteDelta(derived, base))

		if d, ok := DiffSnapshots(derived, derived); !ok || !d.Empty() {
			t.Fatalf("seed %d: self-diff not empty: %+v", seed, d)
		}
	}
}

func TestDiffSnapshotsRejectsForeignTopology(t *testing.T) {
	a := buildMixedPlatform(t, 2).Snapshot()
	b := buildMixedPlatform(t, 2).Snapshot()
	if SameTopology(a, b) {
		t.Fatal("independent compiles reported same topology")
	}
	if _, ok := DiffSnapshots(a, b); ok {
		t.Fatal("diff across topologies reported ok")
	}
	if !SameTopology(a, a) {
		t.Fatal("snapshot not same-topology with itself")
	}
	if d, ok := DiffSnapshots(a, a); !ok || !d.Empty() {
		t.Fatal("self-diff should be ok and empty")
	}
}
