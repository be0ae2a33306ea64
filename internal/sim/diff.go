package sim

import (
	"pilgrim/internal/platform"
)

// Differential plan evaluation: one base run + N derived epochs. Scenario
// sweeps ask the same queries against many epochs that differ from a
// shared base by a handful of mutations. The runner computes each query's
// resource footprint once and classifies it against each epoch's delta:
//
//   - ClassReuse — the footprint misses the delta entirely: the base
//     result is provably bit-identical, no simulation at all;
//   - ClassFork  — the footprint crosses bandwidth changes only;
//   - ClassCold  — a latency or availability change touches the
//     footprint, or the epochs don't share a topology.
//
// Only reuse skips work: fork and cold cells alike run on a pooled engine
// bound to the derived epoch. ClassFork is a label (what the delta touched),
// not a strategy (docs/DESIGN.md, "Why bandwidth-only cells no longer
// fork").

// DeltaClass is the classification of one (query, epoch) cell.
type DeltaClass uint8

const (
	// ClassReuse reuses the base result outright.
	ClassReuse DeltaClass = iota
	// ClassFork marks a footprint that crosses bandwidth changes only.
	ClassFork
	// ClassCold marks a footprint that crosses a latency or availability
	// change (or an epoch of another topology).
	ClassCold
)

// Footprint is the set of platform resources one plan query touches: the
// links of every transfer and background-flow route, and the endpoint
// hosts. Footprints are computed against the base epoch; routes are
// topology-level, so the same footprint is valid on every derived epoch.
type Footprint struct {
	links []bool
	hosts []bool
	ok    bool
}

// PlanFootprint resolves the query's routes against snap and marks every
// touched resource. A query whose routes cannot be resolved (unknown host,
// unroutable pair) yields an invalid footprint that classifies as cold.
func PlanFootprint(snap *platform.Snapshot, q *PlanQuery) Footprint {
	f := Footprint{
		links: make([]bool, snap.NumLinks()),
		hosts: make([]bool, snap.NumHosts()),
		ok:    true,
	}
	mark := func(src, dst string) bool {
		if hi, ok := snap.HostIndex(src); ok {
			f.hosts[hi] = true
		}
		if hi, ok := snap.HostIndex(dst); ok {
			f.hosts[hi] = true
		}
		route, err := snap.Route(src, dst)
		if err != nil {
			return false
		}
		for _, ref := range route.Refs {
			f.links[ref.LinkIndex()] = true
		}
		return true
	}
	for _, bg := range q.Background {
		if !mark(bg[0], bg[1]) {
			f.ok = false
			return f
		}
	}
	for _, t := range q.Transfers {
		if !mark(t.Src, t.Dst) {
			f.ok = false
			return f
		}
	}
	return f
}

// Classify places this footprint against one epoch delta (nil means
// "unknown delta" and classifies cold).
//
// Reuse is sound exactly when no footprint resource changed in a way a
// transfer plan reads: link bandwidth (at activation), link latency
// (latency phase, RTT weight, window bound) and link or host availability
// (admission). Host speed changes never matter to transfer plans — plan
// queries schedule no computation.
func (f *Footprint) Classify(d *platform.EpochDelta) DeltaClass {
	if !f.ok || d == nil {
		return ClassCold
	}
	for _, li := range d.AvailLinks {
		if f.links[li] {
			return ClassCold
		}
	}
	for _, li := range d.LatLinks {
		if f.links[li] {
			return ClassCold
		}
	}
	for _, hi := range d.AvailHosts {
		if f.hosts[hi] {
			return ClassCold
		}
	}
	for _, li := range d.BwLinks {
		if f.links[li] {
			return ClassFork
		}
	}
	return ClassReuse
}

// DiffStats summarizes how a differential plan run classified its cells.
type DiffStats struct {
	// Reused cells took the base answer with no simulation.
	Reused int
	// Forked cells crossed bandwidth changes only and ran on their epoch.
	Forked int
	// Cold cells crossed a latency or availability change (or another
	// topology) and ran on their epoch.
	Cold int
}

// RunPlanDiff answers every query of the plan against the base epoch and
// against each member epoch: reused cells take the base answer, and each
// member's other cells run as one batched RunPlan on that member's epoch.
// Results are bit-identical to RunPlan on each epoch separately. Reused
// cells share the base PlanResult value (including its Results slice) —
// treat results as read-only.
func RunPlanDiff(base *platform.Snapshot, cfg Config, queries []PlanQuery, members []*platform.Snapshot) (baseOut []PlanResult, memberOut [][]PlanResult, stats DiffStats) {
	memberOut = make([][]PlanResult, len(members))
	for mi := range memberOut {
		memberOut[mi] = make([]PlanResult, len(queries))
	}
	baseOut = RunPlan(base, cfg, queries)
	deltas := make([]*platform.EpochDelta, len(members))
	for mi, m := range members {
		deltas[mi], _ = platform.DiffSnapshots(base, m) // nil on topology mismatch -> cold
	}
	runIdx := make([][]int, len(members))
	for qi := range queries {
		f := PlanFootprint(base, &queries[qi])
		for mi := range members {
			switch f.Classify(deltas[mi]) {
			case ClassReuse:
				// Footprint misses the delta: identical admission, capacities
				// and latencies — the base answer (or base setup error) is the
				// member's.
				memberOut[mi][qi] = baseOut[qi]
				stats.Reused++
				continue
			case ClassFork:
				stats.Forked++
			case ClassCold:
				stats.Cold++
			}
			runIdx[mi] = append(runIdx[mi], qi)
		}
	}
	for mi, idxs := range runIdx {
		if len(idxs) == 0 {
			continue
		}
		qs := make([]PlanQuery, len(idxs))
		for j, qi := range idxs {
			qs[j] = queries[qi]
		}
		for j, res := range RunPlan(members[mi], cfg, qs) {
			memberOut[mi][idxs[j]] = res
		}
	}
	return baseOut, memberOut, stats
}
