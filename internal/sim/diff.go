package sim

import (
	"slices"
	"sync"

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
// Fork and cold cells alike run on a pooled engine bound to the derived
// epoch. ClassFork is a label (what the delta touched), not a strategy
// (docs/DESIGN.md, "Why bandwidth-only cells no longer fork"). What such a
// run re-simulates is narrowed per transfer: Footprint.Reached lists the
// transfers a coupling link joins to the delta, and every other transfer
// keeps the base answer's completion date (docs/DESIGN.md, "A cell re-runs
// only what its delta reaches").

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

// staticMargin is 1+2⁻¹⁹: a constraint couples nothing across a whole run
// when its capacity exceeds staticMargin times the sum of the ceilings of
// every transfer that crosses it. Its δ is twice the solver's own
// (flow.slackMargin, 1+2⁻²⁰), whose sum runs over the variables attached
// at the time, in attachment order — a subset of these, in another order;
// the extra 2⁻²⁰ absorbs the reordering (n·2⁻⁵³ ≪ 2⁻²⁰).
const staticMargin = 1 + 1.0/(1<<19)

// couples reports whether a constraint crossed by members transfers whose
// ceilings sum to sum may join them in some solve of a run: it is shared,
// and not statically slack.
func couples(members int32, capacity, sum float64) bool {
	return members >= 2 && !(capacity > staticMargin*sum)
}

// Footprint is what the differential runner knows of one plan query on the
// base epoch: the set of platform resources it touches (the links of every
// transfer and background-flow route, and the endpoint hosts), and — built
// on the first Reached call — the static sharing structure of its
// transfers. Routes are topology-level, so the same footprint serves every
// derived epoch of the base's topology.
//
// The sharing structure is flat, in CSR form: transfer t crosses the
// constraints tc[tcOff[t]:tcOff[t+1]] (deduplicated, as Engine.activate
// attaches them), and constraint c — the one the engine addresses as
// cref[c] — has the members cm[cmOff[c]:cmOff[c+1]], in increasing order.
// ceil[t] is the rate transfer t can never exceed on the base, exactly the
// ceiling its flow variable holds in the solver, and sum[c] the sum of
// c's members' ceilings.
type Footprint struct {
	ok   bool
	bg   bool // the query declares background flows
	base *platform.Snapshot
	cfg  Config

	// links then hosts: one bit per link of the base, set when a route
	// crosses it, and one per host, set when a route ends there.
	bits []uint64

	routes []*platform.CompiledRoute // per transfer
	ceil   []float64                 // per transfer; nil until the structure is built
	tcOff  []int32
	tc     []int32

	cref  []int32 // per constraint, a platform.LinkRef
	cmOff []int32
	cm    []int32
	sum   []float64 // per constraint

	// flags holds one byte per transfer, then one per constraint: whether
	// the constraint couples on the base (baseCouples), and the scratch
	// bits of Reached, which also keeps the member ceilings of its seeds
	// in memberCeil. A footprint answers one Reached call at a time.
	flags      []uint8
	memberCeil []float64
}

// Footprint flags: a constraint's baseCouples bit is set with the sharing
// structure; every other bit is Reached's scratch, clear between calls.
const (
	baseCouples   = 1 << iota // constraint: couples on the base
	memberCouples             // constraint: couples on the member
	crossed                   // constraint: the closure went through it
	seed                      // transfer: its route crosses a changed link
	reach                     // transfer: reached
)

// PlanFootprint resolves the query's routes against snap and records the
// resources it touches. A query whose routes cannot be resolved (unknown
// host, unroutable pair) yields an invalid footprint that classifies as
// cold and reaches every transfer. cfg is the model its transfers run
// under, which their ceilings depend on.
func PlanFootprint(snap *platform.Snapshot, cfg Config, q *PlanQuery) Footprint {
	f := Footprint{bg: len(q.Background) > 0, base: snap, cfg: cfg}
	n, nh := len(q.Transfers), int32(snap.NumHosts())
	f.bits = make([]uint64, (snap.NumLinks()+63)/64+(int(nh)+63)/64)
	f.routes = make([]*platform.CompiledRoute, n)
	links, hosts := f.bits[:(snap.NumLinks()+63)/64], f.bits[(snap.NumLinks()+63)/64:]
	for i := range n + len(q.Background) {
		var src, dst string
		if i < n {
			src, dst = q.Transfers[i].Src, q.Transfers[i].Dst
		} else {
			src, dst = q.Background[i-n][0], q.Background[i-n][1]
		}
		route, si, di, err := snap.RouteEnds(src, dst)
		if err != nil {
			return f
		}
		if i < n {
			f.routes[i] = route
		}
		for _, pt := range [2]int32{si, di} {
			if pt < nh { // a host: points number hosts first
				hosts[pt>>6] |= 1 << (pt & 63)
			}
		}
		for _, ref := range route.Refs {
			li := ref.LinkIndex()
			links[li>>6] |= 1 << (li & 63)
		}
	}
	f.ok = true
	return f
}

// cnstIndex is share's scratch: a constraint's ordinal in the footprint
// plus one, indexed by its platform.LinkRef as Engine.linkCnst is, and all
// zero between uses.
var cnstIndex = sync.Pool{New: func() any { return new([]int32) }}

// share builds the sharing structure of the transfers on the base epoch.
func (f *Footprint) share() {
	n, refs := len(f.routes), 0
	for _, route := range f.routes {
		refs += len(route.Refs)
	}
	ints := make([]int32, (n+1)+refs+refs+(refs+1)+refs+refs)
	carve := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	f.tcOff, f.tc, f.cref = carve(n+1), carve(refs)[:0], carve(refs)[:0]
	floats := make([]float64, 2*n+refs)
	f.ceil, f.memberCeil, f.sum = floats[:n], floats[n:2*n], floats[2*n:]

	// Number the constraints in order of first use and list each
	// transfer's, once each.
	idxp := cnstIndex.Get().(*[]int32)
	if need := f.base.NumLinks() << 2; len(*idxp) < need {
		*idxp = make([]int32, need)
	}
	idx := *idxp
	for t, route := range f.routes {
		f.ceil[t] = f.cfg.ceiling(f.base, route)
		first := len(f.tc)
		for _, ref := range route.Refs {
			cr, ok := constraintRef(f.base, ref)
			if !ok {
				continue
			}
			if idx[cr] == 0 {
				f.cref = append(f.cref, int32(cr))
				idx[cr] = int32(len(f.cref))
			}
			if c := idx[cr] - 1; !slices.Contains(f.tc[first:], c) {
				f.tc = append(f.tc, c) // a constraint crossed twice attaches once
			}
		}
		f.tcOff[t+1] = int32(len(f.tc))
	}
	for _, cr := range f.cref {
		idx[cr] = 0
	}
	cnstIndex.Put(idxp)

	// The member lists, by counting: transfers in increasing order.
	nc := len(f.cref)
	f.cmOff, f.cm, f.sum = carve(nc+1), carve(len(f.tc)), f.sum[:nc]
	cursor := carve(nc)
	for _, c := range f.tc {
		f.cmOff[c+1]++
	}
	for c := range nc {
		f.cmOff[c+1] += f.cmOff[c]
	}
	copy(cursor, f.cmOff[:nc])
	for t := range n {
		for _, c := range f.tc[f.tcOff[t]:f.tcOff[t+1]] {
			f.cm[cursor[c]] = int32(t)
			cursor[c]++
			f.sum[c] += f.ceil[t]
		}
	}
	f.flags = make([]uint8, n+nc)
	for c := range nc {
		if couples(f.cmOff[c+1]-f.cmOff[c], f.capacity(f.base, c), f.sum[c]) {
			f.flags[n+c] = baseCouples
		}
	}
}

// capacity is constraint c's capacity on snap, as the engine creates it.
func (f *Footprint) capacity(snap *platform.Snapshot, c int) float64 {
	return snap.LinkBandwidth(platform.LinkRef(f.cref[c]).LinkIndex()) * f.cfg.BandwidthFactor
}

// crosses reports whether some route of the query crosses link li.
func (f *Footprint) crosses(li int32) bool {
	return f.bits[li>>6]&(1<<(li&63)) != 0
}

// crossesAny reports whether some route of the query crosses one of links.
func (f *Footprint) crossesAny(links []int32) bool {
	for _, li := range links {
		if f.crosses(li) {
			return true
		}
	}
	return false
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
	if f.crossesAny(d.AvailLinks) || f.crossesAny(d.LatLinks) {
		return ClassCold
	}
	hosts := f.bits[(f.base.NumLinks()+63)/64:]
	for _, hi := range d.AvailHosts {
		if hosts[hi>>6]&(1<<(hi&63)) != 0 {
			return ClassCold
		}
	}
	if f.crossesAny(d.BwLinks) {
		return ClassFork
	}
	return ClassReuse
}

// Reached appends to dst, in increasing order, the transfers whose
// completion dates on member (the base epoch under delta d) may differ from
// the base's: the seeds — the transfers whose route crosses a link whose
// bandwidth or latency d changes — and every transfer a constraint that
// couples on the base or on member joins to them, transitively. Every
// other transfer completes on member exactly when it does on the base, and
// a run of the reached transfers alone, in this order, gives each of them
// the date a run of the whole query would (docs/DESIGN.md, "A cell re-runs
// only what its delta reaches"). all is true when the query must run whole:
// every transfer is reached, the query has background flows, d changes an
// availability or is unknown, member is an epoch of another topology, or
// the footprint is invalid.
func (f *Footprint) Reached(member *platform.Snapshot, d *platform.EpochDelta, dst []int32) (reached []int32, all bool) {
	if !f.ok || f.bg || d == nil || len(d.AvailLinks) > 0 || len(d.AvailHosts) > 0 ||
		!platform.SameTopology(member, f.base) {
		return dst, true
	}
	if f.ceil == nil {
		f.share()
	}
	n := len(f.routes)
	tflags, cflags := f.flags[:n], f.flags[n:]
	defer func() {
		// Leave only the base bits behind.
		clear(tflags)
		for c := range cflags {
			cflags[c] &= baseCouples
		}
	}()
	// The seeds, with their ceilings on member. The stack borrows dst's
	// spare capacity; it is empty before reached is appended there.
	stack := dst[len(dst):]
	for _, changed := range [2][]int32{d.BwLinks, d.LatLinks} {
		for _, li := range changed {
			if !f.crosses(li) {
				continue
			}
			for t, route := range f.routes {
				if tflags[t]&seed != 0 || !slices.ContainsFunc(route.Refs, func(r platform.LinkRef) bool { return r.LinkIndex() == li }) {
					continue
				}
				tflags[t] = seed | reach
				f.memberCeil[t] = f.cfg.ceiling(member, route)
				stack = append(stack, int32(t))
			}
		}
	}
	// Only a constraint some seed crosses changes capacity or ceilings on
	// member.
	for _, t := range stack {
		for _, c := range f.tc[f.tcOff[t]:f.tcOff[t+1]] {
			if cflags[c]&(baseCouples|memberCouples) != 0 {
				continue
			}
			members := f.cm[f.cmOff[c]:f.cmOff[c+1]]
			sum := 0.0
			for _, u := range members {
				if tflags[u]&seed != 0 {
					sum += f.memberCeil[u]
				} else {
					sum += f.ceil[u]
				}
			}
			if couples(int32(len(members)), f.capacity(member, int(c)), sum) {
				cflags[c] |= memberCouples
			}
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range f.tc[f.tcOff[t]:f.tcOff[t+1]] {
			if cflags[c]&(baseCouples|memberCouples) == 0 || cflags[c]&crossed != 0 {
				continue // slack or private on both epochs, or crossed already
			}
			cflags[c] |= crossed
			for _, u := range f.cm[f.cmOff[c]:f.cmOff[c+1]] {
				if tflags[u]&reach == 0 {
					tflags[u] |= reach
					stack = append(stack, u)
				}
			}
		}
	}
	reached = dst
	for t := range tflags {
		if tflags[t]&reach != 0 {
			reached = append(reached, int32(t))
		}
	}
	return reached, len(reached)-len(dst) == n
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
// member's other cells run on one pooled engine bound to that member's
// epoch — only the transfers Footprint.Reached lists when the base answer
// is error-free, every other transfer keeping its base result (the whole
// query when the subset run fails, so an error is the full run's).
// Results are bit-identical to RunPlan on each epoch separately. Reused
// cells share the base PlanResult value (including its Results slice);
// a run cell has a Results slice of its own — treat results as read-only.
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
	fps := make([]Footprint, len(queries))
	runIdx := make([][]int, len(members))
	for qi := range queries {
		fps[qi] = PlanFootprint(base, cfg, &queries[qi])
		for mi := range members {
			switch fps[qi].Classify(deltas[mi]) {
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
	var (
		reached []int32
		sub     []Transfer
		done    []float64
	)
	for mi, idxs := range runIdx {
		if len(idxs) == 0 {
			continue
		}
		e := AcquireEngineSnapshot(members[mi], cfg)
		for _, qi := range idxs {
			q, b := &queries[qi], baseOut[qi]
			if b.Err == nil {
				var all bool
				if reached, all = fps[qi].Reached(members[mi], deltas[mi], reached[:0]); !all {
					sub = sub[:0]
					for _, t := range reached {
						sub = append(sub, q.Transfers[t])
					}
					done = slices.Grow(done[:0], len(sub))[:len(sub)]
					if e.RunQuery(&PlanQuery{Transfers: sub}, done) == nil {
						res := slices.Clone(b.Results)
						for j, t := range reached {
							res[t].Completion, res[t].Duration = done[j], done[j]-res[t].Start
						}
						memberOut[mi][qi].Results = res
						continue
					}
				}
			}
			memberOut[mi][qi] = runPlanQuery(e, q)
		}
		ReleaseEngine(e)
	}
	return baseOut, memberOut, stats
}
