// Package flow implements the weighted Max-Min fairness solver at the heart
// of the SimGrid-style fluid network model (the "LMM" — Linear Max-Min —
// system of SimGrid's surf layer, after Casanova & Marchal, INRIA RR-4596,
// and Velho & Legrand, SIMUTools'09).
//
// A System is a bipartite structure of Variables (network flows, with a
// share weight and an optional rate bound) and Constraints (link
// directions, with a capacity in bytes per second). Solve computes the
// weighted max-min allocation by progressive filling: it repeatedly finds
// the bottleneck — the constraint (or variable bound) that saturates first
// when every unfixed variable's rate grows proportionally to its weight —
// fixes the variables it blocks, and continues on the residual system.
//
// The produced allocation satisfies, for every variable v:
//
//   - feasibility: on each constraint, the sum of allocated rates does not
//     exceed the capacity;
//   - max-min optimality: v is blocked, i.e. it sits at its rate bound or
//     crosses at least one saturated constraint, so no rate can be
//     increased without decreasing that of a variable with an equal or
//     smaller rate-to-weight ratio.
//
// A System is persistent and mutable: variables enter with AddVariable (or
// NewVariable plus Attach) and leave with RemoveVariable, while constraint
// membership survives across solves. Solve is incremental — it tracks
// which variables and constraints changed since the previous solve and
// re-solves only the part of the system reachable from them through
// shared constraints (transitively, i.e. the affected connected
// components). Flows in untouched components keep their previous
// allocation bit-for-bit. This mirrors SimGrid's lazy partial invalidation
// of the max-min system (Casanova et al., arXiv:1309.1630) and is what
// lets the simulation kernel pay per event only for the flows an event
// actually disturbs. Within a disturbed component, a re-solve that follows
// removals only keeps every filling round that ran before the first one to
// fix a departed variable, and re-fills just the rest.
//
// The same invalidation runs per link. A constraint crossed by a single
// variable (a host NIC direction, in the network model) is that
// variable's private cap: it couples nothing, so it stays out of the
// dirty closure and the filling rounds, and enters only as a constant fill
// level of its variable. A departing variable that was fixed by its own
// cap or bound, on links that never saturated as the bottleneck from its
// round on, freed nothing anybody was waiting for: RemoveVariable drops its
// charge from those links' records directly and the next Solve re-fills
// nothing.
//
// RTT-awareness is achieved by the caller setting each flow's weight to
// 1/RTT: on a shared bottleneck, flows then receive bandwidth inversely
// proportional to their round-trip time, which is the empirically observed
// behaviour of competing TCP streams that the SimGrid model captures.
package flow

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"
	"strconv"
)

// Variable is one entity competing for capacity — in the network model,
// one TCP flow. Its rate after Solve is Rate().
type Variable struct {
	id     string
	weight float64
	bound  float64 // +Inf when unbounded
	value  float64
	cnsts  []*Constraint
	fixed  bool
	data   any // caller backreference (SetData), cleared on removal

	sys    *System // owning system, nil once removed
	index  int     // position in sys.vars
	serial uint64  // creation order, for deterministic solve order

	// lam is the variable's own fill level during a solve: the smallest of
	// bound/weight and capacity/weight over its private constraints. by is
	// the serial of the private constraint that set it, or byBound; it
	// breaks ties with shared constraints the way a scan in serial order
	// would. (scratch)
	lam float64
	by  uint64

	// round is the filling round that fixed the variable (System.round at
	// that time), 0 until a solve has fixed it.
	round uint64
}

// ID returns the identifier given at creation. Variables created with an
// empty id are named lazily from their creation serial — hot callers (the
// simulation engines, which create one variable per activation) pass ""
// so no name is ever formatted outside error paths.
func (v *Variable) ID() string {
	if v.id == "" {
		return "v" + strconv.FormatUint(v.serial, 10)
	}
	return v.id
}

// SetData attaches an arbitrary caller value to the variable — the
// simulation engines store the owning activity so rate propagation after
// Solve needs no side lookup table. The value is cleared when the
// variable is removed from its system.
func (v *Variable) SetData(d any) { v.data = d }

// Data returns the value stored with SetData, or nil.
func (v *Variable) Data() any { return v.data }

// Weight returns the share weight (callers use 1/RTT).
func (v *Variable) Weight() float64 { return v.weight }

// Bound returns the rate upper bound, +Inf if none.
func (v *Variable) Bound() float64 { return v.bound }

// Rate returns the allocation computed by the last Solve.
func (v *Variable) Rate() float64 { return v.value }

// Constraints returns the constraints this variable crosses.
func (v *Variable) Constraints() []*Constraint { return v.cnsts }

// Constraint is one capacity-limited resource — in the network model, one
// link direction (or a shared half-duplex link).
type Constraint struct {
	id       string
	capacity float64
	vars     []*Variable
	used     float64

	serial    uint64      // creation order, for deterministic solve order
	index     int         // position in sys.cnsts
	remaining float64     // residual capacity during a solve (scratch)
	unfixed   int         // unfixed crossing variables during a solve (scratch)
	active    []*Variable // not-yet-fixed crossing variables, compacted per round (scratch)
	wsum      float64     // Σ weight over active, valid while !wstale (scratch)
	wstale    bool        // a crossing variable fixed since wsum was summed (scratch)

	// log holds the residual state after each fix that charged this
	// constraint while it was shared, in fix order, so a later solve can
	// rewind the constraint to the start of any round (see Solve). won is
	// the last round the constraint was the bottleneck of.
	log []fillRecord
	won uint64
}

// fillRecord is a constraint's (remaining, used) after one crossing
// variable was fixed at rate in the given round.
type fillRecord struct {
	round                 uint64
	rate, remaining, used float64
}

// ID returns the identifier given at creation. Constraints created with
// an empty id are named lazily from their creation serial — hot callers
// (the simulation engines, which address constraints by dense link/host
// index and recreate them per pooled run) pass "" so no name is ever
// formatted outside error and debug paths.
func (c *Constraint) ID() string {
	if c.id == "" {
		return "c" + strconv.FormatUint(c.serial, 10)
	}
	return c.id
}

// Capacity returns the total capacity in abstract rate units (B/s in the
// network model).
func (c *Constraint) Capacity() float64 { return c.capacity }

// Usage returns the total rate allocated on this constraint by the last
// Solve. A private constraint keeps no sum of its own: its usage is its
// one variable's rate.
func (c *Constraint) Usage() float64 {
	switch len(c.vars) {
	case 0:
		return 0
	case 1:
		return c.vars[0].value
	}
	return c.used
}

// Variables returns the variables crossing this constraint.
func (c *Constraint) Variables() []*Variable { return c.vars }

// Saturated reports whether the last Solve used the full capacity, within
// a relative tolerance.
func (c *Constraint) Saturated() bool {
	return c.Usage() >= c.capacity*(1-1e-9)
}

// System holds variables and constraints and computes allocations.
// The zero value is not usable; use NewSystem.
//
// The system is long-lived: callers mutate it (AddVariable,
// RemoveVariable, Attach) between solves, and each Solve re-solves only
// the components disturbed since the previous one.
type System struct {
	vars   []*Variable   // in creation-serial order
	cnsts  []*Constraint // in creation-serial order
	solved bool
	serial uint64 // next creation serial

	// Dirty bookkeeping between solves: dirtyVars/dirtyCnsts seed the
	// affected-component closure; they may contain duplicates or removed
	// variables, both filtered during closure.
	dirtyVars  []*Variable
	dirtyCnsts []*Constraint

	// round numbers the filling rounds of every solve since the last
	// Reset. cut is the round the next Solve must re-run from: noCut right
	// after a solve (and after a quiet departure, which leaves nothing to
	// re-run), lowered by RemoveVariable to the round that fixed the
	// departing variable, and zeroed — nothing of the previous solve is
	// kept — by every other mutation.
	round uint64
	cut   uint64

	// Solver work statistics.
	solves       int
	lastTouched  int
	totalTouched int
	warmSolves   int
	totalKept    int
	touched      []*Variable // variables re-filled by the last Solve

	// varFree and conFree recycle removed Variable / Reset Constraint
	// structs (including their attachment and log slices' capacity):
	// simulations churn one variable per activity activation and rebuild
	// constraints per pooled run, and reuse keeps that churn
	// allocation-free at steady state.
	varFree []*Variable
	conFree []*Constraint

	// Per-solve scratch buffers, reused so a solve allocates nothing at
	// steady state. dirtyVBuf doubles as the touched list between solves.
	// vbits and cbits mark the positions in vars and cnsts the dirty
	// closure reached; every bit is clear between solves.
	dirtyVBuf    []*Variable
	dirtyCBuf    []*Constraint
	stackBuf     []*Constraint
	ownBuf       []*Variable
	vbits, cbits []uint64
}

// noCut is System.cut when nothing has disturbed the last solve.
const noCut = math.MaxUint64

// byBound is Variable.by when the variable's own level is its bound: a
// bound wins only a strict comparison, so it ranks after every constraint.
const byBound = math.MaxUint64

// NewSystem returns an empty system.
func NewSystem() *System { return &System{} }

// Reset empties the system — all variables and constraints are dropped
// and the creation serials restart from zero — while retaining every
// internal buffer and recycled struct. A reset system behaves exactly
// like a new one (identical ids, serials, and therefore identical solve
// order and arithmetic) but re-solving a same-shaped workload allocates
// almost nothing. The engine pool uses this to recycle whole simulations.
func (s *System) Reset() {
	for _, v := range s.vars {
		v.sys = nil
		v.data = nil
		v.cnsts = v.cnsts[:0]
		s.varFree = append(s.varFree, v)
	}
	s.vars = s.vars[:0]
	for _, c := range s.cnsts {
		c.vars = c.vars[:0]
		s.conFree = append(s.conFree, c)
	}
	s.cnsts = s.cnsts[:0]
	s.serial = 0
	s.solved = false
	s.dirtyVars = s.dirtyVars[:0]
	s.dirtyCnsts = s.dirtyCnsts[:0]
	s.round, s.cut = 0, 0
	s.touched = nil
	s.solves, s.lastTouched, s.totalTouched = 0, 0, 0
	s.warmSolves, s.totalKept = 0, 0
}

// recycleConstraint returns a zeroed Constraint, reusing a struct dropped
// by Reset (and its slices' capacity) when one is available.
func (s *System) recycleConstraint() *Constraint {
	n := len(s.conFree)
	if n == 0 {
		return &Constraint{}
	}
	c := s.conFree[n-1]
	s.conFree[n-1] = nil
	s.conFree = s.conFree[:n-1]
	*c = Constraint{vars: c.vars[:0], active: c.active[:0], log: c.log[:0]}
	return c
}

// recycleVariable is recycleConstraint for Variables.
func (s *System) recycleVariable() *Variable {
	n := len(s.varFree)
	if n == 0 {
		return &Variable{}
	}
	v := s.varFree[n-1]
	s.varFree[n-1] = nil
	s.varFree = s.varFree[:n-1]
	*v = Variable{cnsts: v.cnsts[:0]}
	return v
}

// NewConstraint adds a resource with the given capacity (must be >= 0).
// An empty id names the constraint lazily (see ID).
func (s *System) NewConstraint(id string, capacity float64) *Constraint {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Errorf("flow: constraint %q has invalid capacity %v", id, capacity))
	}
	c := s.recycleConstraint()
	c.id, c.capacity, c.serial, c.index = id, capacity, s.serial, len(s.cnsts)
	s.serial++
	s.cnsts = append(s.cnsts, c)
	return c
}

// NewVariable adds a flow with the given share weight and rate bound.
// weight must be > 0. bound <= 0 means unbounded. An empty id names the
// variable lazily (see ID). Removed Variable structs are recycled, so a
// steady add/remove churn allocates nothing.
func (s *System) NewVariable(id string, weight, bound float64) *Variable {
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		panic(fmt.Errorf("flow: variable %q has invalid weight %v", id, weight))
	}
	if bound <= 0 || math.IsNaN(bound) {
		bound = math.Inf(1)
	}
	v := s.recycleVariable()
	v.id, v.weight, v.bound = id, weight, bound
	v.sys, v.index, v.serial = s, len(s.vars), s.serial
	s.serial++
	s.vars = append(s.vars, v)
	s.dirtyVars = append(s.dirtyVars, v)
	s.cut = 0
	s.solved = false
	return v
}

// AddVariable creates a flow and attaches it to the given constraints in
// one call — the entry point of the incremental API. It panics if the
// weight is invalid or if the same constraint is passed twice (which
// would double-count the flow on that resource).
func (s *System) AddVariable(id string, weight, bound float64, cnsts ...*Constraint) *Variable {
	v := s.NewVariable(id, weight, bound)
	for _, c := range cnsts {
		s.MustAttach(v, c)
	}
	return v
}

// RemoveVariable withdraws a flow from the system: it is detached from
// every constraint it crosses, and the capacity it held becomes available
// to the remaining flows at the next Solve, which re-runs only the filling
// rounds from the one that fixed v onward (see Solve) — or none, when the
// departure is quiet (see quiet). Removing a variable that does not belong
// to this system (or was already removed) panics.
func (s *System) RemoveVariable(v *Variable) {
	if v.sys != s {
		panic(fmt.Errorf("flow: variable %q is not in this system", v.ID()))
	}
	quiet := s.quiet(v)
	for _, c := range v.cnsts {
		if quiet && len(c.vars) > 1 {
			c.unlog(v.round)
		}
		for i, w := range c.vars {
			if w == v {
				// Ordered removal keeps c.vars in attachment order, so
				// weight summations visit the survivors in the same order
				// a from-scratch build would.
				c.vars = append(c.vars[:i], c.vars[i+1:]...)
				break
			}
		}
		if !quiet {
			s.dirtyCnsts = append(s.dirtyCnsts, c)
		}
	}
	// Ordered removal, for the same reason: s.vars stays in serial order.
	last := len(s.vars) - 1
	copy(s.vars[v.index:], s.vars[v.index+1:])
	s.vars[last] = nil
	s.vars = s.vars[:last]
	for i := v.index; i < last; i++ {
		s.vars[i].index = i
	}
	if !quiet && v.round < s.cut {
		s.cut = v.round
	}
	v.sys = nil
	v.cnsts = v.cnsts[:0]
	v.data = nil
	s.varFree = append(s.varFree, v)
	s.solved = false
}

// quiet reports whether removing v changes no other rate: the system is
// as the last Solve (or a quiet departure) left it, and none of v's shared
// constraints was the bottleneck of v's round or of a later one. Then v
// was fixed alone, by its own level (a shared bottleneck would have won
// v's round), and without it every later round finds the same bottleneck
// with the same bits — docs/DESIGN.md, "Quiet departures".
func (s *System) quiet(v *Variable) bool {
	if s.cut != noCut {
		return false
	}
	for _, c := range v.cnsts {
		if len(c.vars) > 1 && c.won >= v.round {
			return false
		}
	}
	return true
}

// unlog deletes the one record of the given round from the log and
// replays the later records' charges onto the residual state before it,
// as the fixes would have charged the constraint had that round not run.
func (c *Constraint) unlog(round uint64) {
	i := c.logIndex(round)
	if i == len(c.log) || c.log[i].round != round {
		panic(fmt.Errorf("flow: internal error: constraint %q has no record of round %d", c.ID(), round))
	}
	remaining, used := c.capacity, 0.0
	if i > 0 {
		remaining, used = c.log[i-1].remaining, c.log[i-1].used
	}
	c.log = append(c.log[:i], c.log[i+1:]...)
	for k := i; k < len(c.log); k++ {
		r := &c.log[k]
		remaining -= r.rate
		if remaining < 0 {
			remaining = 0
		}
		used += r.rate
		r.remaining, r.used = remaining, used
	}
	c.used = used
}

// logIndex returns the position of the first record of round or later.
func (c *Constraint) logIndex(round uint64) int {
	i, _ := slices.BinarySearchFunc(c.log, round, func(r fillRecord, round uint64) int { return cmp.Compare(r.round, round) })
	return i
}

// SetBound changes the rate bound of a live variable (bound <= 0 means
// unbounded, as in NewVariable). Setting a bound equal to the current one
// is a no-op and does not dirty the variable's component — callers can
// blindly re-assert bounds every event and only actual changes trigger
// re-solving. Panics if the variable is not in this system.
func (s *System) SetBound(v *Variable, bound float64) {
	if v.sys != s {
		panic(fmt.Errorf("flow: variable %q is not in this system", v.ID()))
	}
	if bound <= 0 || math.IsNaN(bound) {
		bound = math.Inf(1)
	}
	if bound == v.bound {
		return
	}
	v.bound = bound
	s.dirtyVars = append(s.dirtyVars, v)
	s.cut = 0
	s.solved = false
}

// Attach declares that variable v consumes capacity on constraint c.
// Attaching the same pair twice is an error (it would double-count the
// flow on that link).
func (s *System) Attach(v *Variable, c *Constraint) error {
	for _, existing := range v.cnsts {
		if existing == c {
			return fmt.Errorf("flow: variable %q already attached to constraint %q", v.ID(), c.ID())
		}
	}
	v.cnsts = append(v.cnsts, c)
	c.vars = append(c.vars, v)
	s.dirtyVars = append(s.dirtyVars, v)
	s.cut = 0
	s.solved = false
	return nil
}

// MustAttach is Attach but panics on error; convenient for builders that
// guarantee uniqueness.
func (s *System) MustAttach(v *Variable, c *Constraint) {
	if err := s.Attach(v, c); err != nil {
		panic(err)
	}
}

// Variables returns all variables in the system, in creation order.
func (s *System) Variables() []*Variable { return s.vars }

// Constraints returns all constraints in the system, in creation order.
func (s *System) Constraints() []*Constraint { return s.cnsts }

// ErrUnboundedVariable is returned by Solve when a variable crosses no
// constraint and has no rate bound: its max-min rate would be infinite.
var ErrUnboundedVariable = errors.New("flow: variable with no constraint and no bound")

// Solve computes the weighted max-min allocation. Solving is incremental
// twice over. Across components: only the connected components containing
// a variable or constraint mutated since the previous Solve are recomputed,
// and every other variable keeps its previous rate unchanged. Within those
// components: when the only mutations were removals, every variable fixed
// in a round before the earliest one to fix a departed variable stays
// fixed — a departed variable was still unfixed throughout those rounds,
// so it never changed a residual capacity, and without its weight every
// constraint it crossed can only saturate later, which leaves the choice
// of bottleneck in those rounds, and therefore their arithmetic, exactly
// as it was. Filling then re-runs only for the variables still connected
// to a departed one through variables that were unfixed at that point; a
// from-scratch solve is the same loop with nothing kept. docs/DESIGN.md
// ("Resuming a solve from the first disturbed level") has the argument in
// full.
//
// Components are joined only by shared constraints — those crossed by
// more than one variable. A private constraint, crossed by one, enters
// the solve as a constant fill level of its variable, ranked against the
// shared constraints exactly where a scan in serial order would have
// found it (docs/DESIGN.md, "Private constraints"). Calling Solve on an
// already-solved system is a no-op.
func (s *System) Solve() error {
	if s.solved {
		return nil
	}
	s.solves++

	// Gather the dirty sub-system: every shared constraint reachable from
	// a mutation seed, and every variable to re-fill, walking shared
	// constraints but not through the variables fixed before round cut —
	// those are kept, and what lies behind them is as undisturbed as
	// another component. (When cut is 0 nothing is kept and this is the
	// closure over whole components. When it is not, only removals
	// happened, so every variable reached was fixed by an earlier solve:
	// none has round 0.) The traversal marks positions in two bitmaps, so
	// its cost is proportional to the dirty set, and reading them back in
	// position order lists the dirty set in creation order, so the solve
	// visits resources in a stable order. The collection slices are
	// per-system scratch, so steady-state solves allocate nothing.
	cut := s.cut
	s.vbits = growBits(s.vbits, len(s.vars))
	s.cbits = growBits(s.cbits, len(s.cnsts))
	stack := s.stackBuf[:0]
	markC := func(c *Constraint) {
		if setBit(s.cbits, c.index) {
			stack = append(stack, c)
		}
	}
	markV := func(v *Variable) {
		if !setBit(s.vbits, v.index) || v.round < cut {
			return
		}
		for _, c := range v.cnsts {
			if len(c.vars) > 1 {
				markC(c)
			}
		}
	}
	for _, v := range s.dirtyVars {
		if v.sys == s { // skip variables removed after being added
			markV(v)
		}
	}
	for _, c := range s.dirtyCnsts {
		switch len(c.vars) {
		case 0:
		case 1: // turned private: only its variable can have changed
			markV(c.vars[0])
		default:
			markC(c)
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range c.vars {
			markV(v)
		}
	}
	s.stackBuf = stack[:0]
	dirtyC := collectBits(s.dirtyCBuf[:0], s.cbits, s.cnsts)
	dirtyV := collectBits(s.dirtyVBuf[:0], s.vbits, s.vars)
	kept := len(dirtyV)
	dirtyV = slices.DeleteFunc(dirtyV, func(v *Variable) bool { return v.round < cut })
	kept -= len(dirtyV)
	s.dirtyVBuf = dirtyV
	s.dirtyCBuf = dirtyC

	for _, v := range dirtyV {
		if len(v.cnsts) == 0 && math.IsInf(v.bound, 1) {
			return fmt.Errorf("%w: %q", ErrUnboundedVariable, v.ID())
		}
	}

	// Rewind the dirty sub-system to the start of round cut: its variables
	// restart unfixed at rate 0, its shared constraints at what the kept
	// variables left them. Until this solve completes there is no
	// consistent state to resume from, hence the zeroed s.cut.
	//
	// Three working lists keep the progressive-filling rounds proportional
	// to what is still unfixed rather than to the whole dirty set:
	//
	//   - each shared constraint snapshots its unfixed crossing variables
	//     into c.active, compacted as variables fix (attachment order
	//     preserved, so the per-round weight sums are bit-identical to a
	//     full rescan);
	//   - work compacts away constraints whose variables are all fixed
	//     (relative serial order preserved, so λ* tie-breaking between
	//     equal constraints is unchanged);
	//   - own holds the variables with a level of their own (a bound or a
	//     private constraint), sorted once by (level, tie key, creation
	//     order): each round its first unfixed entry is the candidate.
	s.cut = 0
	if kept > 0 {
		s.warmSolves++
		s.totalKept += kept
	}
	own := s.ownBuf[:0]
	for _, v := range dirtyV {
		v.fixed = false
		v.value = 0
		v.lam, v.by = math.Inf(1), byBound
		if !math.IsInf(v.bound, 1) {
			v.lam = v.bound / v.weight
		}
		for _, c := range v.cnsts {
			// A private constraint's level is remaining/Σw with nothing
			// else charged and nothing else summed: capacity/weight.
			if l := c.capacity / v.weight; len(c.vars) == 1 && (l < v.lam || l == v.lam && c.serial < v.by) {
				v.lam, v.by = l, c.serial
			}
		}
		if !math.IsInf(v.lam, 1) {
			own = append(own, v)
		}
	}
	slices.SortFunc(own, func(a, b *Variable) int {
		// Plain comparisons: levels are never NaN, and skipping
		// cmp.Compare's NaN checks halves this sort, which every solve runs.
		switch {
		case a.lam < b.lam:
			return -1
		case a.lam > b.lam:
			return 1
		case a.by < b.by:
			return -1
		case a.by > b.by:
			return 1
		}
		return cmp.Compare(a.serial, b.serial)
	})
	for _, c := range dirtyC {
		n := c.logIndex(cut)
		c.log = slices.Grow(c.log[:n], len(c.vars)-n) // one record per variable still to fix
		c.remaining, c.used = c.capacity, 0
		if n > 0 {
			c.remaining, c.used = c.log[n-1].remaining, c.log[n-1].used
		}
		// Every fixed crossing variable logged one record, so the n left
		// are the kept ones: a constraint they fill is not scanned.
		act, w := c.active[:0], 0.0
		if n < len(c.vars) {
			for _, v := range c.vars {
				if !v.fixed {
					w += v.weight
					act = append(act, v)
				}
			}
		}
		c.active, c.unfixed = act, len(act)
		c.wsum, c.wstale = w, false
	}
	work := dirtyC

	unfixed := len(dirtyV)
	fix := func(v *Variable, rate float64) {
		// rate may be an inlined product: float64() rounds it, so no
		// GOARCH fuses it into the updates below (make fma-check).
		rate = float64(rate)
		v.fixed = true
		v.value = rate
		v.round = s.round
		unfixed--
		for _, c := range v.cnsts {
			if len(c.vars) == 1 {
				continue // private: its usage is v's rate
			}
			c.remaining -= rate
			if c.remaining < 0 {
				c.remaining = 0
			}
			c.unfixed--
			c.used += rate
			c.wstale = true
			c.log = append(c.log, fillRecord{s.round, rate, c.remaining, c.used})
		}
	}
	head := 0
	for unfixed > 0 {
		s.round++
		// Find the minimal fill level λ* at which something saturates.
		// For shared constraint c: λ_c = remaining_c / Σ weights of
		// unfixed vars. Weight sums are recomputed from scratch — never
		// maintained by subtraction, which accumulates floating-point
		// residue that can make an exhausted constraint look populated and
		// stall the loop — but only for constraints a fix actually
		// disturbed (wstale): an undisturbed constraint's sum is the same
		// bits either way.
		lambda := math.Inf(1)
		var satCnst *Constraint
		m := 0
		for _, c := range work {
			if c.unfixed == 0 {
				continue // no unfixed variable crosses c anymore
			}
			work[m] = c
			m++
			if c.wstale {
				w := 0.0
				act := c.active[:0]
				for _, v := range c.active {
					if !v.fixed {
						w += v.weight
						act = append(act, v)
					}
				}
				c.active = act
				c.wsum = w
				c.wstale = false
			}
			l := c.remaining / c.wsum
			if l < lambda {
				lambda, satCnst = l, c
			}
		}
		work = work[:m]
		// The first unfixed variable of own wins if its level is lower, or
		// equal and set by a private constraint older than satCnst: the
		// first minimum of a scan over every constraint in serial order,
		// then a bound only below all of them.
		for head < len(own) && own[head].fixed {
			head++
		}
		if head < len(own) {
			if v := own[head]; v.lam < lambda || v.lam == lambda && v.by < satCnst.serial {
				if v.by == byBound {
					fix(v, v.bound)
				} else {
					fix(v, v.weight*v.lam)
				}
				continue
			}
		}

		if satCnst == nil {
			// No constraint limits the remaining variables: they are all
			// unbounded through constraints with zero unfixed weight.
			// This cannot happen because every unfixed variable either has
			// a finite level of its own (covered above) or crosses a shared
			// constraint whose unfixed weight includes its own positive
			// weight.
			return errors.New("flow: internal error: no saturating resource found")
		}
		// Fix every unfixed variable crossing the saturated constraint at
		// weight-proportional share of λ*.
		satCnst.won = s.round
		for _, v := range satCnst.active {
			if !v.fixed {
				fix(v, v.weight*lambda)
			}
		}
	}
	s.ownBuf = own[:0]

	s.lastTouched = len(dirtyV)
	s.totalTouched += len(dirtyV)
	s.touched = dirtyV
	s.dirtyVars = s.dirtyVars[:0]
	s.dirtyCnsts = s.dirtyCnsts[:0]
	s.cut = noCut
	s.solved = true
	return nil
}

// growBits returns bits, extended with clear words to cover n positions.
func growBits(bits []uint64, n int) []uint64 {
	if w := (n + 63) >> 6; w > len(bits) {
		bits = append(bits, make([]uint64, w-len(bits))...)
	}
	return bits
}

// setBit sets bit i and reports whether it was clear.
func setBit(bits []uint64, i int) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if bits[w]&b != 0 {
		return false
	}
	bits[w] |= b
	return true
}

// collectBits appends all[i] for every set bit i, in position order, and
// clears the bits.
func collectBits[T any](dst []T, bits []uint64, all []T) []T {
	for w := range bits[:(len(all)+63)>>6] {
		for word := bits[w]; word != 0; word &= word - 1 {
			dst = append(dst, all[w<<6+mathbits.TrailingZeros64(word)])
		}
		bits[w] = 0
	}
	return dst
}

// Touched returns the variables re-filled by the most recent effective
// Solve, in creation order — the only variables whose Rate may have
// changed. A resumed solve leaves out of it the variables it kept fixed
// and whatever they shield from the departed ones, and a solve after
// quiet departures only leaves it empty. The slice is valid
// until the next Solve; callers that update derived state (the simulation
// engines copying rates) iterate it instead of every variable.
func (s *System) Touched() []*Variable { return s.touched }

// Solved reports whether the system has been solved since its last
// structural modification.
func (s *System) Solved() bool { return s.solved }

// Solves returns how many times Solve actually recomputed allocations
// (no-op calls on an already-solved system are not counted).
func (s *System) Solves() int { return s.solves }

// LastTouched returns the number of variables re-filled by the most
// recent effective Solve — len(Touched()).
func (s *System) LastTouched() int { return s.lastTouched }

// TotalTouched returns the cumulative number of variables re-filled
// across all effective solves; with a from-scratch solver this would be
// Σ (system size at each solve), so the ratio of the two measures the
// work saved by incrementality.
func (s *System) TotalTouched() int { return s.totalTouched }

// Rounds returns the cumulative number of filling rounds run by all
// effective solves (none for a solve after quiet departures only).
func (s *System) Rounds() int { return int(s.round) }

// WarmSolves returns how many effective solves resumed: they reached at
// least one variable fixed before the first disturbed round and kept it.
func (s *System) WarmSolves() int { return s.warmSolves }

// VariablesKept returns the cumulative number of variables warm solves
// reached and kept fixed. Kept variables are not walked through, so those
// behind them are not counted: VariablesKept / (VariablesKept +
// TotalTouched) is a lower bound on the share of re-filling that resuming
// skipped.
func (s *System) VariablesKept() int { return s.totalKept }
