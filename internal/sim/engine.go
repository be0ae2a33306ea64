package sim

import (
	"fmt"
	"math"

	"pilgrim/internal/flow"
	"pilgrim/internal/platform"
)

// ActivityID identifies an activity within an Engine.
type ActivityID int

// activityKind discriminates engine activities.
type activityKind int

const (
	commActivity activityKind = iota
	execActivity
)

// activityPhase tracks the lifecycle of an activity.
type activityPhase int

const (
	phaseScheduled activityPhase = iota // waiting for its start date
	phaseLatency                        // communication in latency phase
	phaseActive                         // consuming bandwidth / flops
	phaseDone
)

// activity is one simulated resource consumer: a communication or a
// computation. Activities live in the Engine's slot arena; completed
// activities release their slot for reuse, so the arena size tracks the
// peak live count, not the historical total.
type activity struct {
	id   ActivityID
	slot int32 // arena index, stable for the activity's lifetime
	kind activityKind

	phase      activityPhase
	persistent bool // background flow: shares bandwidth, never completes

	start   float64 // requested start date
	latLeft float64 // remaining latency phase (comm)

	// Lazy progress accounting: remaining is authoritative as of
	// lastUpdate only. While the rate is constant the activity's progress
	// is implied by its projected completion date (its event-heap key);
	// remaining is settled — advanced to the current date under the
	// outgoing rate — exactly when the rate changes or the activity
	// fires. A resharing therefore costs O(touched · log n), not O(n).
	remaining  float64 // bytes (comm) or flops (exec) left at lastUpdate
	lastUpdate float64 // date remaining was last settled
	rate       float64 // current allocation

	// comm fields. links is the compiled index route (shared with the
	// platform snapshot; never mutated).
	links  []platform.LinkRef
	weight float64
	bound  float64

	// exec fields
	host int32 // dense host index, -1 when not an exec

	// fv is the live flow-system variable while the activity is in
	// phaseActive. It is inserted on activation and removed on completion,
	// so the max-min system mutates incrementally instead of being rebuilt
	// per event. The variable's Data backref points here.
	fv *flow.Variable
}

// Engine is the discrete-event kernel. It is not safe for concurrent use.
//
// Completions are reported one way: the list Step returns, which
// RunToCompletion, the one run loop, hands to an optional observer. The
// Done ledger keeps the same dates for reading once the run is over.
//
// The kernel is built around an indexed min-heap of per-activity
// next-event dates: a scheduled activity is keyed by its start date, a
// communication in latency phase by its latency-end date, and an active
// activity by its projected completion date under its current rate. A
// Step pops the due events in O(log n) each, and a resharing re-keys only
// the activities whose rate the incremental solver actually changed
// (flow.System.Touched) — so the per-event cost is proportional to the
// disturbed component, never to the total live-activity count.
//
// The engine runs entirely against one compiled platform Snapshot: routes
// are index slices, link state is read from the snapshot's epoch arrays
// (lock-free), and shared-resource constraints are addressed by dense
// link/host index — flat arrays where the previous kernel hashed a
// (pointer, direction) map key per traversal. Nothing read from the
// snapshot's epoch outlives Reset, which is what lets the pool rebind a
// recycled engine to another epoch of the same topology (pool.go).
type Engine struct {
	cfg  Config
	snap *platform.Snapshot

	now    float64
	nextID ActivityID

	// Dense activity arena. arena is indexed by slot; a completed slot
	// waits in pendingFree until the next Step, then joins freeSlots and is
	// reused by a later add, struct and all. Deferring reuse means an
	// activity the run observer adds after a completion batch never takes a
	// slot that batch vacated. Slots never affect results (heap ties break
	// on id); the deferral keeps the arena layout, and so the stall scan's
	// report order, stable.
	arena       []*activity
	freeSlots   []int32
	pendingFree []int32
	live        int

	// Per-ActivityID bookkeeping (ids are never reused): the owning slot
	// while live (-1 once retired), and the completion date (NaN while
	// live) answering Done queries after the slot is recycled.
	slotOf []int32
	doneAt []float64

	// Indexed min-heap of next-event dates, keyed (date, id) so ties pop
	// in activity-id order — the deterministic processing order the
	// scan-based kernel had. heapPos maps slot -> heap index (-1 absent).
	heapKey  []float64
	heapSlot []int32
	heapPos  []int32

	due       []int32      // scratch batch of popped slots, reused across Steps
	completed []ActivityID // scratch result of the latest Step

	dirty bool // sharing must be recomputed

	// sys is the single long-lived max-min system of the simulation.
	// Constraints (link directions, host CPUs) are created lazily on
	// first use and kept forever; activity variables come and go as
	// activities start and complete, and each resharing re-solves only
	// the components those changes disturbed.
	//
	// linkCnst is indexed by LinkRef (dense link index packed with the
	// traversal direction) and hostCnst by dense host index, replacing the
	// previous map[constraintKey] hashing on the activation hot path.
	sys      *flow.System
	linkCnst []*flow.Constraint
	hostCnst []*flow.Constraint

	events int // sharing recomputations, for benchmarks

	pooled   bool // eligible for the engine pool (created by AcquireEngineSnapshot)
	released bool // handed back by ReleaseEngine; snap is nil until re-acquired
}

// NewEngineSnapshot creates an engine over one compiled platform epoch.
// The engine reads only the snapshot, so concurrent engines on different
// epochs of the same platform never interfere.
func NewEngineSnapshot(snap *platform.Snapshot, cfg Config) *Engine {
	return &Engine{
		cfg:      cfg,
		snap:     snap,
		sys:      flow.NewSystem(),
		linkCnst: make([]*flow.Constraint, snap.NumLinks()<<2),
		hostCnst: make([]*flow.Constraint, snap.NumHosts()),
	}
}

// Reset returns the engine to its initial state — simulated time zero, no
// activities, no constraints, activity ids restarting from zero — while
// keeping every internal buffer: the arena structs, the event heap's
// storage, the flow system's recycled variables and constraints, and the
// constraint map's buckets. A reset engine is observably identical to a
// fresh NewEngineSnapshot (same ids, same solver serials, bit-identical
// results) but re-running a same-shaped workload allocates almost
// nothing. Callers must drop any ActivityID obtained before the reset.
func (e *Engine) Reset() {
	e.now = 0
	e.nextID = 0
	e.live = 0
	// Rebuild the free list in descending slot order so reuse hands out
	// slots 0, 1, 2, ... exactly like a fresh engine's appends. Stale
	// structs from the previous run (live ones, if it was abandoned
	// mid-flight) are neutralized: the arena-wide cold scans (stall
	// detection, dumpLive) skip phaseDone entries, and a stale id must
	// never index the truncated slotOf slice.
	e.freeSlots = e.freeSlots[:0]
	for i := len(e.arena) - 1; i >= 0; i-- {
		e.freeSlots = append(e.freeSlots, int32(i))
		e.heapPos[i] = -1
		a := e.arena[i]
		a.phase = phaseDone
		a.fv = nil
		a.links = nil
		a.host = -1
	}
	e.pendingFree = e.pendingFree[:0]
	e.slotOf = e.slotOf[:0]
	e.doneAt = e.doneAt[:0]
	e.heapKey = e.heapKey[:0]
	e.heapSlot = e.heapSlot[:0]
	e.due = e.due[:0]
	e.dirty = false
	e.events = 0
	e.sys.Reset()
	clear(e.linkCnst)
	clear(e.hostCnst)
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SharingStats quantifies the solver work of a simulation.
type SharingStats struct {
	// Resharings is how many times bandwidth sharing was recomputed —
	// the cost driver of a simulation, reported by benchmarks.
	Resharings int
	// VariablesTouched is the cumulative number of flow variables
	// re-filled across all resharings. A rebuild-the-world solver would
	// touch every active flow at every resharing; the ratio
	// VariablesTouched / (Resharings × live flows) measures how much the
	// incremental solver saves. A quiet departure (a flow that left links
	// which never bound anyone after it, see flow.System.RemoveVariable)
	// re-fills nothing, so this falls for the same answers as the solver
	// skips more.
	VariablesTouched int
	// LastTouched is the number of variables re-filled by the most
	// recent resharing — the components the last event disturbed, minus
	// the variables a resumed solve kept; 0 after a quiet departure.
	LastTouched int
	// Rounds is the cumulative number of progressive-filling rounds the
	// resharings ran. Quiet departures run none.
	Rounds int
	// WarmSolves is how many resharings resumed from a round of the
	// previous solve (a completion is the only event in between) instead
	// of re-filling their components from zero. A quiet departure's
	// resharing is not one of them: it resumes nothing.
	WarmSolves int
	// VariablesKept is the cumulative number of variables those warm
	// solves reached and kept fixed (see flow.System.VariablesKept):
	// VariablesKept / (VariablesKept + VariablesTouched) is a lower bound
	// on the share of re-filling that resuming skipped. Quiet departures
	// keep nothing, so it falls when they replace a resume.
	VariablesKept int
}

// SharingStats returns the solver work statistics of the simulation so
// far.
func (e *Engine) SharingStats() SharingStats {
	return SharingStats{
		Resharings:       e.events,
		VariablesTouched: e.sys.TotalTouched(),
		LastTouched:      e.sys.LastTouched(),
		Rounds:           e.sys.Rounds(),
		WarmSolves:       e.sys.WarmSolves(),
		VariablesKept:    e.sys.VariablesKept(),
	}
}

// Snapshot returns the compiled platform epoch the engine simulates.
func (e *Engine) Snapshot() *platform.Snapshot { return e.snap }

// heap primitives ----------------------------------------------------------

func (e *Engine) heapLess(i, j int) bool {
	if e.heapKey[i] != e.heapKey[j] {
		return e.heapKey[i] < e.heapKey[j]
	}
	return e.arena[e.heapSlot[i]].id < e.arena[e.heapSlot[j]].id
}

func (e *Engine) heapSwap(i, j int) {
	e.heapKey[i], e.heapKey[j] = e.heapKey[j], e.heapKey[i]
	e.heapSlot[i], e.heapSlot[j] = e.heapSlot[j], e.heapSlot[i]
	e.heapPos[e.heapSlot[i]] = int32(i)
	e.heapPos[e.heapSlot[j]] = int32(j)
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLess(i, p) {
			return
		}
		e.heapSwap(i, p)
		i = p
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.heapKey)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && e.heapLess(r, l) {
			m = r
		}
		if !e.heapLess(m, i) {
			return
		}
		e.heapSwap(i, m)
		i = m
	}
}

func (e *Engine) heapPush(slot int32, key float64) {
	i := len(e.heapKey)
	e.heapKey = append(e.heapKey, key)
	e.heapSlot = append(e.heapSlot, slot)
	e.heapPos[slot] = int32(i)
	e.siftUp(i)
}

// heapFix updates slot's key in place, inserting the slot if absent.
func (e *Engine) heapFix(slot int32, key float64) {
	i := int(e.heapPos[slot])
	if i < 0 {
		e.heapPush(slot, key)
		return
	}
	old := e.heapKey[i]
	if key == old {
		return
	}
	e.heapKey[i] = key
	if key < old {
		e.siftUp(i)
	} else {
		e.siftDown(i)
	}
}

func (e *Engine) heapRemove(slot int32) {
	i := int(e.heapPos[slot])
	if i < 0 {
		return
	}
	n := len(e.heapKey) - 1
	if i != n {
		e.heapSwap(i, n)
	}
	e.heapPos[slot] = -1
	e.heapKey = e.heapKey[:n]
	e.heapSlot = e.heapSlot[:n]
	if i != n {
		e.siftDown(i)
		e.siftUp(i)
	}
}

// arena primitives ---------------------------------------------------------

// add installs the template in a (possibly recycled) arena slot, registers
// its start event, and returns the new activity id.
func (e *Engine) add(tmpl activity) ActivityID {
	id := e.nextID
	e.nextID++
	var slot int32
	if n := len(e.freeSlots); n > 0 {
		slot = e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		*e.arena[slot] = tmpl
	} else {
		slot = int32(len(e.arena))
		a := new(activity)
		*a = tmpl
		e.arena = append(e.arena, a)
		e.heapPos = append(e.heapPos, -1)
	}
	a := e.arena[slot]
	a.id = id
	a.slot = slot
	e.slotOf = append(e.slotOf, slot)
	e.doneAt = append(e.doneAt, math.NaN())
	e.live++
	e.heapPush(slot, a.start)
	e.dirty = true
	return id
}

// lookup returns the live activity with the given id, or nil.
func (e *Engine) lookup(id ActivityID) *activity {
	if id < 0 || int(id) >= len(e.slotOf) {
		return nil
	}
	slot := e.slotOf[id]
	if slot < 0 {
		return nil
	}
	return e.arena[slot]
}

// retire releases a finished activity's slot for reuse from the next Step
// on (see pendingFree).
func (e *Engine) retire(a *activity) {
	e.slotOf[a.id] = -1
	e.live--
	a.links = nil
	a.host = -1
	e.pendingFree = append(e.pendingFree, a.slot)
}

func (e *Engine) drainFree() {
	if len(e.pendingFree) == 0 {
		return
	}
	e.freeSlots = append(e.freeSlots, e.pendingFree...)
	e.pendingFree = e.pendingFree[:0]
}

// public scheduling API ----------------------------------------------------

// AddComm schedules a communication of size bytes from src to dst starting
// at date start (>= Now).
func (e *Engine) AddComm(src, dst string, size, start float64) (ActivityID, error) {
	if size <= 0 || math.IsNaN(size) || math.IsInf(size, 0) {
		return 0, fmt.Errorf("sim: invalid transfer size %v", size)
	}
	if start < e.now {
		return 0, fmt.Errorf("sim: start date %v is in the past (now %v)", start, e.now)
	}
	route, err := e.snap.Route(src, dst)
	if err != nil {
		return 0, err
	}
	// Failed resources (scenario overlays set their bandwidth/speed to an
	// exact 0) reject the communication up front with a precise error
	// instead of stalling the whole simulation at run time.
	if hi, ok := e.snap.HostIndex(src); ok && e.snap.HostDown(hi) {
		return 0, fmt.Errorf("sim: host %q is down", src)
	}
	if hi, ok := e.snap.HostIndex(dst); ok && e.snap.HostDown(hi) {
		return 0, fmt.Errorf("sim: host %q is down", dst)
	}
	for _, ref := range route.Refs {
		if li := ref.LinkIndex(); e.snap.LinkDown(li) {
			return 0, fmt.Errorf("sim: link %q on route %s->%s is down",
				e.snap.LinkName(li), src, dst)
		}
	}
	lat := e.snap.RouteLatency(route)
	return e.add(activity{
		kind:      commActivity,
		phase:     phaseScheduled,
		start:     start,
		latLeft:   e.cfg.LatencyFactor * lat,
		remaining: size,
		links:     route.Refs,
		host:      -1,
		weight:    1 / e.cfg.rttWeight(lat),
		bound:     e.cfg.windowBound(lat),
	}), nil
}

// AddBackgroundFlow installs a persistent flow from src to dst that
// competes for bandwidth like a regular TCP stream but never terminates.
// This implements the paper's "model the background traffic of Grid'5000"
// future work: metrology-observed cross-traffic can be injected into each
// forecast simulation.
func (e *Engine) AddBackgroundFlow(src, dst string, start float64) (ActivityID, error) {
	id, err := e.AddComm(src, dst, math.MaxFloat64/4, start)
	if err != nil {
		return 0, err
	}
	e.lookup(id).persistent = true
	return id, nil
}

// AddExec schedules a computation of the given flops on host, starting at
// date start. Concurrent computations on one host share its speed equally.
func (e *Engine) AddExec(host string, flops, start float64) (ActivityID, error) {
	if flops <= 0 || math.IsNaN(flops) || math.IsInf(flops, 0) {
		return 0, fmt.Errorf("sim: invalid flops %v", flops)
	}
	if start < e.now {
		return 0, fmt.Errorf("sim: start date %v is in the past (now %v)", start, e.now)
	}
	hi, ok := e.snap.HostIndex(host)
	if !ok {
		return 0, fmt.Errorf("sim: unknown host %q", host)
	}
	if e.snap.HostDown(hi) {
		return 0, fmt.Errorf("sim: host %q is down", host)
	}
	return e.add(activity{
		kind:      execActivity,
		phase:     phaseScheduled,
		start:     start,
		remaining: flops,
		host:      hi,
	}), nil
}

// Done reports whether the activity has completed, and at what date.
func (e *Engine) Done(id ActivityID) (bool, float64) {
	if id < 0 || int(id) >= len(e.slotOf) {
		return false, 0
	}
	if e.slotOf[id] >= 0 {
		return false, 0
	}
	if at := e.doneAt[id]; !math.IsNaN(at) {
		return true, at
	}
	return false, 0
}

// linkConstraint returns the persistent flow constraint for one link
// direction, creating it on first use. ref is the dense address: Shared
// links use the canonical None direction, FullDuplex links Up or Down.
// Constraints are identified by index alone (lazy flow ids) — pooled
// engines recreate every constraint per run, and formatting
// "<link>:<dir>" names for each was measurable allocator churn.
func (e *Engine) linkConstraint(ref platform.LinkRef, capacity float64) *flow.Constraint {
	if c := e.linkCnst[ref]; c != nil {
		return c
	}
	c := e.sys.NewConstraint("", capacity)
	e.linkCnst[ref] = c
	return c
}

// hostConstraint returns the persistent CPU constraint of one host,
// creating it on first use.
func (e *Engine) hostConstraint(hi int32) *flow.Constraint {
	if c := e.hostCnst[hi]; c != nil {
		return c
	}
	c := e.sys.NewConstraint("", e.snap.HostSpeed(hi))
	e.hostCnst[hi] = c
	return c
}

// activate moves the activity to its consuming phase: it gets a flow
// variable in the max-min system, and its event key is assigned by the
// resharing at the next Step, once a rate is known.
func (e *Engine) activate(a *activity) {
	a.phase = phaseActive
	a.lastUpdate = e.now
	switch a.kind {
	case commActivity:
		bound := a.bound
		// Fatpipe links bound the flow without sharing.
		for _, u := range a.links {
			li := u.LinkIndex()
			if e.snap.LinkPolicy(li) == platform.Fatpipe {
				cap := e.snap.LinkBandwidth(li) * e.cfg.BandwidthFactor
				if bound == 0 || cap < bound {
					bound = cap
				}
			}
		}
		v := e.sys.NewVariable("", a.weight, bound)
		v.SetData(a)
		a.fv = v
		a.rate = 0
		for _, u := range a.links {
			li := u.LinkIndex()
			switch e.snap.LinkPolicy(li) {
			case platform.Shared:
				c := e.linkConstraint(platform.MakeLinkRef(li, platform.None),
					e.snap.LinkBandwidth(li)*e.cfg.BandwidthFactor)
				if err := e.sys.Attach(v, c); err != nil {
					// A route may legitimately traverse the same
					// shared link twice only in pathological
					// platforms; treat as single attachment.
					continue
				}
			case platform.FullDuplex:
				dir := u.Direction()
				if dir == platform.None {
					dir = platform.Up
				}
				c := e.linkConstraint(platform.MakeLinkRef(li, dir),
					e.snap.LinkBandwidth(li)*e.cfg.BandwidthFactor)
				if err := e.sys.Attach(v, c); err != nil {
					continue
				}
			case platform.Fatpipe:
				// handled via bound above
			}
		}
	case execActivity:
		v := e.sys.NewVariable("", 1, 0)
		v.SetData(a)
		a.fv = v
		a.rate = 0
		e.sys.MustAttach(v, e.hostConstraint(a.host))
	}
	e.dirty = true
}

// deactivate withdraws the activity's flow variable, releasing its
// bandwidth to the components it crossed, and drops any pending heap
// entry.
func (e *Engine) deactivate(a *activity) {
	if a.fv != nil {
		a.fv.SetData(nil)
		e.sys.RemoveVariable(a.fv)
		a.fv = nil
	}
	e.heapRemove(a.slot)
	e.dirty = true
}

// reshare re-solves bandwidth sharing after membership changes. Only the
// flow components disturbed since the previous resharing are recomputed;
// for each variable whose rate actually changed, the owning activity's
// remaining work is settled under the outgoing rate and its completion
// projection is re-keyed in the event heap — everything else keeps both
// its allocation and its heap key untouched.
func (e *Engine) reshare() error {
	e.events++
	if err := e.sys.Solve(); err != nil {
		return fmt.Errorf("sim: sharing: %w", err)
	}
	for _, v := range e.sys.Touched() {
		a, _ := v.Data().(*activity)
		if a == nil {
			continue
		}
		r := v.Rate()
		if r == a.rate {
			continue // projection unchanged; keep the existing key
		}
		if a.phase != phaseActive || a.persistent {
			a.rate = r
			continue
		}
		// Lazy progress accounting: settle remaining under the rate that
		// held since lastUpdate, then project the completion date under
		// the new rate.
		if e.now > a.lastUpdate {
			// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
			a.remaining -= float64(a.rate * (e.now - a.lastUpdate))
			if a.remaining < 0 {
				a.remaining = 0
			}
		}
		a.lastUpdate = e.now
		a.rate = r
		key := math.Inf(1)
		if r > 0 {
			key = e.now + a.remaining/r
		}
		e.heapFix(a.slot, key)
	}
	e.dirty = false
	return nil
}

// Step advances simulated time to the next event and processes it.
// It returns the activities completed at the new time, and ok=false when
// no event remains (simulation finished or stalled). The returned slice is
// engine-owned scratch, valid until the next Step.
func (e *Engine) Step() (completed []ActivityID, ok bool, err error) {
	e.drainFree()
	if e.dirty {
		if err := e.reshare(); err != nil {
			return nil, false, err
		}
	}
	if len(e.heapKey) == 0 || math.IsInf(e.heapKey[0], 1) {
		// No reachable event. Detect stalls: an active non-persistent
		// activity with zero rate can never finish (e.g. a zero-capacity
		// link).
		for _, a := range e.arena {
			if a.phase == phaseActive && !a.persistent && a.rate <= 0 &&
				e.slotOf[a.id] == a.slot {
				return nil, false, fmt.Errorf("sim: activity %d stalled with zero rate", a.id)
			}
		}
		return nil, false, nil
	}
	t := e.heapKey[0]
	if t < e.now {
		return nil, false, fmt.Errorf("sim: time went backwards (%v -> %v)", e.now, t)
	}
	e.now = t

	// Pop the batch due now. Entries tie-break on (date, id), so the
	// batch — and therefore the completed list — comes out in activity-id
	// order, the processing order of the scan-based kernel.
	e.due = e.due[:0]
	e.completed = e.completed[:0]
	for len(e.heapKey) > 0 && e.heapKey[0] <= t {
		slot := e.heapSlot[0]
		e.due = append(e.due, slot)
		e.heapRemove(slot)
	}

	for _, slot := range e.due {
		a := e.arena[slot]
		switch a.phase {
		case phaseScheduled:
			if a.kind == commActivity && a.latLeft > 0 {
				a.phase = phaseLatency
				e.heapPush(slot, e.now+a.latLeft)
			} else {
				e.activate(a)
			}
		case phaseLatency:
			a.latLeft = 0
			e.activate(a)
		case phaseActive:
			if a.persistent {
				continue
			}
			a.remaining = 0
			a.phase = phaseDone
			e.doneAt[a.id] = e.now
			e.deactivate(a)
			e.completed = append(e.completed, a.id)
			e.retire(a)
		}
	}
	return e.completed, true, nil
}

// RunToCompletion steps the engine until no event remains — the engine's
// one run loop. The returned count is the number of activities that
// completed.
//
// observe, when non-nil, is called for each completed activity after the
// Step that completed it, in completion order, with Now equal to the
// completion date. It may add activities (starting at Now or later) but
// must not Step; a non-nil error stops the run and is returned as is.
// RunQuery passes nil and reads the Done ledger once the run is over.
//
// A defensive event budget turns scheduling bugs (stalled zero-dt loops)
// into diagnosable errors instead of hangs: each activity generates a
// bounded number of events (arrival, latency end, completion), so a run
// exceeding a generous multiple of the activities that can produce events
// in THIS run — those live at entry plus those spawned since — is a bug
// by construction. Scaling with that figure rather than the engine's
// historical total keeps the budget meaningful for long-lived engines
// (background-flow churn in testbed sessions no longer inflates it), and
// still grows with activities the observer adds so workflow chains never
// trip it spuriously.
func (e *Engine) RunToCompletion(observe func(ActivityID) error) (int, error) {
	total := 0
	steps := 0
	base := e.live
	spawned0 := int(e.nextID)
	for {
		done, ok, err := e.Step()
		if err != nil {
			return total, err
		}
		total += len(done)
		if !ok {
			return total, nil
		}
		if observe != nil {
			for _, id := range done {
				if err := observe(id); err != nil {
					return total, err
				}
			}
		}
		steps++
		if steps > 100*(base+int(e.nextID)-spawned0+10) {
			return total, fmt.Errorf("sim: event budget exhausted at t=%v: %s", e.now, e.dumpLive())
		}
	}
}

// dumpLive renders non-done activities for stall diagnostics.
func (e *Engine) dumpLive() string {
	out := ""
	for _, a := range e.arena {
		if a.phase == phaseDone || e.slotOf[a.id] != a.slot {
			continue
		}
		out += fmt.Sprintf("\n  act %d kind=%d phase=%d start=%v latLeft=%v remaining=%v rate=%v",
			a.id, a.kind, a.phase, a.start, a.latLeft, a.remaining, a.rate)
	}
	return out
}
