package platform

// Epoch deltas — the dense "what changed" summary between two snapshots of
// the same compiled topology. The differential evaluation path classifies
// every sub-simulation against a delta: a query whose resource footprint
// misses the delta entirely reuses the base answer outright; any other runs
// on the derived epoch, labelled by whether it crosses bandwidth changes
// only or a latency or availability change.

// EpochDelta lists the dense link/host indices whose state differs between
// a base snapshot and one derived from it, classified by what changed.
// Index slices are sorted ascending and duplicate-free.
type EpochDelta struct {
	// BwLinks: bandwidth differs and the link is up in both epochs.
	BwLinks []int32
	// LatLinks: latency differs.
	LatLinks []int32
	// AvailLinks: the link is down (bandwidth exactly 0) in one epoch only.
	AvailLinks []int32
	// SpeedHosts: speed differs and the host is up in both epochs.
	SpeedHosts []int32
	// AvailHosts: the host is down (speed exactly 0) in one epoch only.
	AvailHosts []int32
}

// Empty reports whether the two epochs are state-identical.
func (d *EpochDelta) Empty() bool {
	return d == nil || (len(d.BwLinks) == 0 && len(d.LatLinks) == 0 &&
		len(d.AvailLinks) == 0 && len(d.SpeedHosts) == 0 && len(d.AvailHosts) == 0)
}

// Size returns the total number of changed resources.
func (d *EpochDelta) Size() int {
	if d == nil {
		return 0
	}
	return len(d.BwLinks) + len(d.LatLinks) + len(d.AvailLinks) + len(d.SpeedHosts) + len(d.AvailHosts)
}

// SameTopology reports whether two snapshots are epochs of one compiled
// topology — same dense indices, routes, and routing policies — which is
// the precondition for diffing them or sharing a pooled engine across them.
func SameTopology(a, b *Snapshot) bool {
	return a != nil && b != nil && a.topo == b.topo
}

// TopologyID is an opaque, comparable handle on a snapshot's compiled
// topology: two snapshots carry equal ids exactly when SameTopology holds.
// It exists so code outside this package can key state that is valid for
// every epoch of a platform (sim's engine pool) without naming the
// topology type. Holding one keeps the topology alive, but no epoch's
// link state.
type TopologyID struct{ t *topology }

// TopologyID returns the handle of the compiled topology s is an epoch of.
func (s *Snapshot) TopologyID() TopologyID { return TopologyID{s.topo} }

// diffPages appends to dst the indices (< n) whose values differ between
// two page tables, invoking classify for each. Epochs share untouched
// pages by pointer (copy-on-write), so the scan costs O(changed pages),
// not O(resources).
func diffPages(base, derived []*statePage, n int32, visit func(i int32, b, d float64)) {
	for pi := range base {
		bp, dp := base[pi], derived[pi]
		if bp == dp {
			continue
		}
		lo := int32(pi) << statePageShift
		hi := min(lo+statePageSize, n)
		for i := lo; i < hi; i++ {
			b, d := bp[i&statePageMask], dp[i&statePageMask]
			if b != d {
				visit(i, b, d)
			}
		}
	}
}

// DiffSnapshots computes the dense state delta from base to derived.
// It returns ok=false when the snapshots do not share a topology (no
// meaningful dense diff exists; differential evaluation must go cold).
// Comparison is by exact float equality — the same values the simulation
// reads — so an empty delta guarantees bit-identical simulation results.
func DiffSnapshots(base, derived *Snapshot) (delta *EpochDelta, ok bool) {
	if !SameTopology(base, derived) {
		return nil, false
	}
	d := &EpochDelta{}
	nl, nh := int32(base.NumLinks()), int32(base.NumHosts())
	diffPages(base.bw, derived.bw, nl, func(i int32, b, v float64) {
		if b == 0 || v == 0 {
			d.AvailLinks = append(d.AvailLinks, i)
		} else {
			d.BwLinks = append(d.BwLinks, i)
		}
	})
	diffPages(base.lat, derived.lat, nl, func(i int32, b, v float64) {
		d.LatLinks = append(d.LatLinks, i)
	})
	diffPages(base.speed, derived.speed, nh, func(i int32, b, v float64) {
		if b == 0 || v == 0 {
			d.AvailHosts = append(d.AvailHosts, i)
		} else {
			d.SpeedHosts = append(d.SpeedHosts, i)
		}
	})
	return d, true
}
