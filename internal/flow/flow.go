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
// level of its variable. A shared constraint whose capacity exceeds the
// sum of its variables' rate ceilings by a fixed margin is slack: it can
// never saturate, so it couples nothing either and enters nowhere, and the
// flows only it joins are re-filled apart. A departing variable that was
// fixed by its own cap or bound, on links that never saturated as the
// bottleneck from its round on, freed nothing anybody was waiting for:
// RemoveVariable drops its charge from those links' records directly and
// the next Solve re-fills nothing. Each of these shortcuts lowers the work
// counters (LastTouched, Rounds, VariablesKept) for the same answers; no
// rate changes by a bit.
//
// RTT-awareness is achieved by the caller setting each flow's weight to
// 1/RTT: on a shared bottleneck, flows then receive bandwidth inversely
// proportional to their round-trip time, which is the empirically observed
// behaviour of competing TCP streams that the SimGrid model captures.
package flow

import (
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
	// The fields a solve reads for every variable it reaches come first,
	// so they share as few cache lines as the struct allows.
	cnsts  []*Constraint
	weight float64
	// round is the filling round that fixed the variable (System.round at
	// that time), 0 until a solve has fixed it.
	round uint64
	index int // position in sys.vars

	// shared lists, in attachment order, the binding constraints of cnsts
	// (see Constraint.binding). lam is the variable's own fill level: the
	// smallest of bound/weight and capacity/weight over its private
	// constraints (those it alone crosses; a slack one is in neither).
	// by is the serial of the private constraint that set it, or byBound;
	// it breaks ties with shared constraints the way a scan in serial order
	// would. All three hold while split is set; a mutation that changes the
	// bound or moves a constraint of v between private, slack and binding
	// clears it, and the next solve to re-fill v splits again (see
	// splitConstraints).
	shared []*Constraint
	lam    float64
	by     uint64
	split  bool

	value float64
	bound float64 // +Inf when unbounded
	// ceil is the rate the variable can never exceed: the smallest of its
	// bound and the capacities of every constraint it crosses.
	ceil   float64
	serial uint64 // creation order, for deterministic solve order
	// at[k] is the variable's position in cnsts[k].vars.
	at []int
	// kept is the number of the last solve that counted the variable as
	// kept (see Solve); it makes that count once per variable. (scratch)
	kept uint64

	sys  *System // owning system, nil once removed
	data any     // caller backreference (SetData), cleared on removal
	id   string
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
	// Hot fields first, as in Variable. vars is in attachment order, with
	// a nil hole where a variable left; holes counts them (see drop).
	vars      []*Variable
	holes     int
	index     int      // position in sys.cnsts
	remaining float64  // residual capacity during a solve (scratch)
	unfixed   int      // unfixed crossing variables during a solve (scratch)
	wsum      float64  // Σ weight over active, valid while !wstale (scratch)
	lam       float64  // fill level remaining/wsum, valid while !wstale (scratch)
	wstale    bool     // a crossing variable fixed since wsum and lam were set (scratch)
	active    []member // not-yet-fixed crossing variables, compacted per round (scratch)

	// binding is set while the constraint is shared and was not found
	// slack (see slack): it joins components, takes part in the filling
	// rounds and is charged by every fix of its variables. log holds its
	// residual capacity after each such fix, in fix order, so a later
	// solve can rewind the constraint to the start of any round (see
	// Solve). won is the last round the constraint was the bottleneck of.
	binding bool
	log     []fillRecord
	won     uint64

	serial   uint64 // creation order, for deterministic solve order
	capacity float64
	id       string
}

// member is a variable in a constraint's active list: its position in
// sys.vars and its weight, so the filling rounds re-sum weights and test
// fixes without reading the variable.
type member struct {
	index  int
	weight float64
}

// fillRecord is a constraint's remaining capacity after one crossing
// variable was fixed at rate in the given round.
type fillRecord struct {
	round           uint64
	rate, remaining float64
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
// Solve: the sum of its variables' rates, in attachment order.
func (c *Constraint) Usage() float64 {
	used := 0.0
	for _, v := range c.vars {
		if v != nil {
			used += v.value
		}
	}
	return used
}

// Variables returns the variables crossing this constraint, in attachment
// order.
func (c *Constraint) Variables() []*Variable {
	if c.holes > 0 {
		c.compact()
	}
	return c.vars
}

// live returns the number of variables crossing the constraint.
func (c *Constraint) live() int { return len(c.vars) - c.holes }

// first returns the first variable crossing the constraint, nil if none.
func (c *Constraint) first() *Variable {
	for _, v := range c.vars {
		if v != nil {
			return v
		}
	}
	return nil
}

// unsplit clears the split of every variable crossing c: c moved between
// slack and binding.
func (c *Constraint) unsplit() {
	for _, v := range c.vars {
		if v != nil {
			v.split = false
		}
	}
}

// slackMargin is 1+δ, δ = 2⁻²⁰: a shared constraint is slack when its
// capacity exceeds slackMargin times the sum of its variables' ceilings.
// The margin dwarfs the rounding of any sum of rates a solve computes,
// so a slack constraint's fill level stays strictly above every round's
// bottleneck level (docs/DESIGN.md, "Slack constraints couple nothing").
const slackMargin = 1 + 1.0/(1<<20)

// slack reports whether c can never be the bottleneck of a round: its
// capacity exceeds the sum of its variables' ceilings, summed in
// attachment order, by the margin. Dropping variables from the sum can
// only lower it, so a slack constraint stays slack through removals.
func (c *Constraint) slack() bool {
	sum := 0.0
	for _, v := range c.vars {
		if v != nil {
			sum += v.ceil
		}
	}
	return c.capacity > slackMargin*sum
}

// drop empties position i of vars — the variable there has left — and
// compacts vars once holes fill more than half of it, so a departure
// costs amortized O(1) however many variables cross c.
func (c *Constraint) drop(i int) {
	c.vars[i] = nil
	c.holes++
	if 2*c.holes > len(c.vars) {
		c.compact()
	}
}

// compact closes the holes of vars, keeping attachment order, and moves
// every variable's record of its position.
func (c *Constraint) compact() {
	n := 0
	for _, v := range c.vars {
		if v == nil {
			continue
		}
		for k, vc := range v.cnsts {
			if vc == c {
				v.at[k] = n
				break
			}
		}
		c.vars[n] = v
		n++
	}
	clear(c.vars[n:])
	c.vars, c.holes = c.vars[:n], 0
}

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
	// vars is in creation-serial order, with a nil hole where a variable
	// left; holes counts them (see RemoveVariable).
	vars   []*Variable
	holes  int
	cnsts  []*Constraint // in creation-serial order
	solved bool
	serial uint64 // next creation serial

	// Dirty bookkeeping between solves: dirtyVars/dirtyCnsts seed the
	// affected-component closure, and dirtyCnsts also lists the shared
	// constraints to classify as slack or binding; they may contain
	// duplicates or removed variables, both filtered during closure.
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
	ownBuf       []ownEntry
	sortBuf      []ownEntry // sortOwn's merge scratch
	done         []bool     // by position in vars: fixed by the current solve
	kept         int        // kept variables the current solve reached
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
		if v == nil {
			continue
		}
		v.sys = nil
		v.data = nil
		v.cnsts = v.cnsts[:0]
		s.varFree = append(s.varFree, v)
	}
	clear(s.vars)
	s.vars, s.holes = s.vars[:0], 0
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
	*v = Variable{cnsts: v.cnsts[:0], shared: v.shared[:0], at: v.at[:0]}
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
	v.id, v.weight, v.bound, v.ceil = id, weight, bound, bound
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
// to this system (or was already removed) panics. A departure leaves a
// hole in the system's and in each constraint's list, closed once holes
// fill half of it, so it costs amortized O(1) per constraint crossed.
func (s *System) RemoveVariable(v *Variable) {
	if v.sys != s {
		panic(fmt.Errorf("flow: variable %q is not in this system", v.ID()))
	}
	quiet := s.quiet(v)
	for k, c := range v.cnsts {
		// Holes keep c.vars in attachment order, so weight summations
		// visit the survivors in the same order a from-scratch build would.
		c.drop(v.at[k])
		switch {
		case !c.binding:
		case !quiet:
			// A seed, classified by the next solve. It stays binding until
			// then: that solve must know c may have set its variables' rates.
			s.dirtyCnsts = append(s.dirtyCnsts, c)
		default:
			c.unlog(v.round)
			if c.live() < 2 || c.slack() {
				// Left private or slack, c won no round: not one before v's,
				// which are unchanged, and not one since (see quiet). It set
				// no rate, so it stops binding with nothing to re-fill.
				c.binding = false
				c.unsplit()
			}
		}
		if c.live() == 1 {
			c.first().split = false // c turned private
		}
	}
	// A hole, for the same reason: s.vars stays in serial order.
	s.vars[v.index] = nil
	s.holes++
	if 2*s.holes > len(s.vars) {
		s.compact()
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

// compact closes the holes of s.vars, keeping creation order, and
// renumbers every variable's position. Between solves nothing else holds
// a position.
func (s *System) compact() {
	n := 0
	for _, v := range s.vars {
		if v != nil {
			v.index = n
			s.vars[n] = v
			n++
		}
	}
	clear(s.vars[n:])
	s.vars, s.holes = s.vars[:n], 0
}

// quiet reports whether removing v changes no other rate: the system is
// as the last Solve (or a quiet departure) left it, and none of v's
// binding constraints was the bottleneck of v's round or of a later one.
// Then v was fixed alone, by its own level (a binding bottleneck would
// have won v's round, and a slack constraint wins none), and without it
// every later round finds the same bottleneck with the same bits —
// docs/DESIGN.md, "Quiet departures".
func (s *System) quiet(v *Variable) bool {
	if s.cut != noCut {
		return false
	}
	for _, c := range v.cnsts {
		if c.binding && c.won >= v.round {
			return false
		}
	}
	return true
}

// unlog deletes the one record of the given round from the log and
// replays the later records' charges onto the residual capacity before
// it, as the fixes would have charged the constraint had that round not
// run.
func (c *Constraint) unlog(round uint64) {
	i := c.logIndex(round)
	if i == len(c.log) || c.log[i].round != round {
		panic(fmt.Errorf("flow: internal error: constraint %q has no record of round %d", c.ID(), round))
	}
	remaining := c.capacity
	if i > 0 {
		remaining = c.log[i-1].remaining
	}
	c.log = append(c.log[:i], c.log[i+1:]...)
	for k := i; k < len(c.log); k++ {
		r := &c.log[k]
		remaining -= r.rate
		if remaining < 0 {
			remaining = 0
		}
		r.remaining = remaining
	}
}

// logIndex returns the position of the first record of round or later.
// The log is in round order and callers ask for a round near its end — the
// one a departed or re-filled variable was fixed in — so it scans back
// from the tail, over the records the caller rewrites anyway.
func (c *Constraint) logIndex(round uint64) int {
	i := len(c.log)
	for i > 0 && c.log[i-1].round >= round {
		i--
	}
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
	v.bound, v.ceil = bound, bound
	for _, c := range v.cnsts {
		v.ceil = min(v.ceil, c.capacity)
		if !c.binding && c.live() > 1 {
			s.dirtyCnsts = append(s.dirtyCnsts, c) // its ceilings' sum may have grown
		}
	}
	v.split = false
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
	v.at = append(v.at, len(c.vars))
	c.vars = append(c.vars, v)
	v.ceil = min(v.ceil, c.capacity)
	v.split = false
	switch n := c.live(); {
	case n == 2:
		c.first().split = false // c turned shared
		fallthrough
	case n > 2 && !c.binding:
		// A shared constraint that is not binding is classified again: the
		// sum of its ceilings grew.
		s.dirtyCnsts = append(s.dirtyCnsts, c)
	}
	if n := len(s.dirtyVars); n == 0 || s.dirtyVars[n-1] != v {
		// A variable attached right after its creation (or a previous
		// attachment) is already a seed.
		s.dirtyVars = append(s.dirtyVars, v)
	}
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
func (s *System) Variables() []*Variable {
	if s.holes > 0 {
		s.compact()
	}
	return s.vars
}

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
// Components are joined only by binding constraints — shared ones (crossed
// by more than one variable) that are not slack. A private constraint,
// crossed by one, enters the solve as a constant fill level of its
// variable, ranked against the shared constraints exactly where a scan in
// serial order would have found it (docs/DESIGN.md, "Private
// constraints"). A slack constraint can never be a round's bottleneck, so
// it enters nowhere (docs/DESIGN.md, "Slack constraints couple nothing").
// Calling Solve on an already-solved system is a no-op.
func (s *System) Solve() error {
	if s.solved {
		return nil
	}
	s.solves++
	if len(s.dirtyVars) == 0 && len(s.dirtyCnsts) == 0 {
		// Only quiet departures since the last solve (or nothing at all):
		// no seed, so the closure is empty and there is nothing to re-fill.
		s.lastTouched = 0
		s.touched = s.dirtyVBuf[:0]
		s.cut = noCut
		s.solved = true
		return nil
	}
	// A variable that crosses no constraint is reached by no walk, so if
	// it is to be re-filled it is a seed. Checked before any state moves.
	for _, v := range s.dirtyVars {
		if v.sys == s && len(v.cnsts) == 0 && math.IsInf(v.bound, 1) {
			return fmt.Errorf("%w: %q", ErrUnboundedVariable, v.ID())
		}
	}

	// Gather the dirty sub-system: every binding constraint reachable from
	// a mutation seed, and every variable to re-fill, walking binding
	// constraints but not through the variables fixed before round cut —
	// those are kept, and what lies behind them is as undisturbed as
	// another component. (When cut is 0 nothing is kept and this is the
	// closure over whole components. When it is not, only removals
	// happened, so every variable reached was fixed by an earlier solve:
	// none has round 0.) The traversal marks the positions of re-filled
	// variables and of seeded or binding constraints in two bitmaps, so its
	// cost is proportional to the dirty set, and reading them back in
	// position order lists the dirty set in creation order, so the solve
	// visits resources in a stable order. A kept variable is only counted,
	// once, by stamping it with this solve's number.
	//
	// The walk also sets up the filling rounds, so each attachment is
	// read once for both: a binding constraint, when popped, snapshots its
	// crossing variables that are not kept — those still to fix — into
	// c.active, in attachment order, with their weight sum; a re-filled
	// variable, when first marked, has its own level ready (see level).
	//
	// The collection slices are per-system scratch, so steady-state solves
	// allocate nothing.
	cut := s.cut
	s.vbits = growBits(s.vbits, len(s.vars))
	s.cbits = growBits(s.cbits, len(s.cnsts))
	s.stackBuf, s.kept = s.stackBuf[:0], 0
	// First classify every seeded shared constraint, before any variable
	// is split. A seed is shared and not binding after an attachment or a
	// rebound of one of its variables (the sum of its ceilings may have
	// grown), and binding after a departure (it may have shrunk). Only a
	// solve from round 0 turns a constraint binding: a resumed one follows
	// removals only, which cannot make a slack constraint bind, and a slack
	// constraint has no log to rewind. A constraint that turns binding
	// reaches its variables when popped; one that turns slack may have set
	// their rates, so it passes them to the walk once, as does one left
	// with a single variable. Either flip invalidates its variables' splits.
	pass := s.dirtyCnsts[:0]
	for _, c := range s.dirtyCnsts {
		switch n := c.live(); {
		case n < 2:
			if c.binding && n == 1 {
				pass = append(pass, c) // turned private
			}
			c.binding = false
		case setBit(s.cbits, c.index):
			if c.binding || cut == 0 {
				if binding := !c.slack(); binding != c.binding {
					c.binding = binding
					c.unsplit()
					if !binding {
						pass = append(pass, c)
					}
				}
			}
			if c.binding {
				s.stackBuf = append(s.stackBuf, c)
			}
		}
	}
	for _, c := range pass {
		for _, v := range c.vars {
			if v != nil {
				s.reach(v, cut)
			}
		}
	}
	for _, v := range s.dirtyVars {
		if v.sys == s { // skip variables removed after being added
			s.reach(v, cut)
		}
	}
	stamp := uint64(s.solves)
	for n := len(s.stackBuf); n > 0; n = len(s.stackBuf) {
		c := s.stackBuf[n-1]
		s.stackBuf = s.stackBuf[:n-1]
		act, w := c.active[:0], 0.0
		for _, v := range c.vars {
			// reach, inlined: this loop visits every membership of every
			// dirty binding constraint.
			if v == nil {
				continue
			}
			if v.round < cut {
				if v.kept != stamp {
					v.kept = stamp
					s.kept++
				}
				continue
			}
			w += v.weight
			act = append(act, member{v.index, v.weight})
			if setBit(s.vbits, v.index) {
				s.level(v)
			}
		}
		c.active, c.unfixed = act, len(act)
		c.wsum, c.wstale = w, false
	}
	dirtyC := collectBits(s.dirtyCBuf[:0], s.cbits, s.cnsts)
	dirtyV := collectBits(s.dirtyVBuf[:0], s.vbits, s.vars)
	s.dirtyVBuf = dirtyV
	s.dirtyCBuf = dirtyC

	// Rewind the dirty sub-system to the start of round cut: its variables
	// restart unfixed at rate 0, its binding constraints at what the kept
	// variables left them. Until this solve completes there is no
	// consistent state to resume from, hence the zeroed s.cut.
	//
	// Three working lists keep the progressive-filling rounds proportional
	// to what is still unfixed rather than to the whole dirty set:
	//
	//   - each binding constraint's c.active, compacted as variables fix
	//     (attachment order preserved, so the per-round weight sums are
	//     bit-identical to a full rescan);
	//   - work compacts away constraints whose variables are all fixed
	//     (relative serial order preserved, so λ* tie-breaking between
	//     equal constraints is unchanged);
	//   - own holds the variables with a level of their own (a bound or a
	//     private constraint), sorted once by (level, tie key, creation
	//     order): each round its first unfixed entry is the candidate.
	s.cut = 0
	if s.kept > 0 {
		s.warmSolves++
		s.totalKept += s.kept
	}
	s.done = slices.Grow(s.done[:0], len(s.vars))[:len(s.vars)]
	done := s.done
	own := s.ownBuf[:0]
	for _, v := range dirtyV {
		done[v.index] = false
		v.value = 0
		if !math.IsInf(v.lam, 1) {
			own = append(own, ownEntry{v.lam, v.by, v.index})
		}
	}
	s.sortBuf = sortOwn(own, s.sortBuf)
	work := dirtyC[:0]
	for _, c := range dirtyC {
		if !c.binding {
			continue // a seed that was only classified
		}
		// The records of round cut and later are at the log's tail, one
		// per variable this solve re-fills or a departure freed: finding
		// the rewind position from there costs what re-filling does.
		n := 0
		if cut > 0 {
			n = c.logIndex(cut)
		}
		c.log = slices.Grow(c.log[:n], c.live()-n) // one record per variable still to fix
		c.remaining = c.capacity
		if n > 0 {
			c.remaining = c.log[n-1].remaining
		}
		if c.unfixed > 0 {
			c.lam = c.remaining / c.wsum
		}
		work = append(work, c)
	}

	unfixed := len(dirtyV)
	fix := func(v *Variable, rate float64) {
		// rate may be an inlined product: float64() rounds it, so no
		// GOARCH fuses it into the updates below (make fma-check).
		rate = float64(rate)
		done[v.index] = true
		v.value = rate
		v.round = s.round
		unfixed--
		for _, c := range v.shared { // only binding constraints are charged
			c.remaining -= rate
			if c.remaining < 0 {
				c.remaining = 0
			}
			c.unfixed--
			c.wstale = true
			c.log = append(c.log, fillRecord{s.round, rate, c.remaining})
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
		// disturbed (wstale): an undisturbed constraint's sum, and its
		// level, are the same bits as when they were last computed.
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
				w, k := 0.0, 0
				for _, a := range c.active {
					if !done[a.index] {
						w += a.weight
						c.active[k] = a
						k++
					}
				}
				c.active = c.active[:k]
				c.wsum = w
				c.lam = c.remaining / c.wsum
				c.wstale = false
			}
			if c.lam < lambda {
				lambda, satCnst = c.lam, c
			}
		}
		work = work[:m]
		// The first unfixed variable of own wins if its level is lower, or
		// equal and set by a private constraint older than satCnst: the
		// first minimum of a scan over every constraint in serial order,
		// then a bound only below all of them.
		for head < len(own) && done[own[head].index] {
			head++
		}
		if head < len(own) {
			if o := &own[head]; o.lam < lambda || o.lam == lambda && o.by < satCnst.serial {
				if v := s.vars[o.index]; o.by == byBound {
					fix(v, v.bound)
				} else {
					fix(v, v.weight*o.lam)
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
		for _, a := range satCnst.active {
			if !done[a.index] {
				fix(s.vars[a.index], a.weight*lambda)
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

// reach handles v, reached by the dirty closure of a solve resuming from
// round cut: a kept variable (fixed before cut) is counted in s.kept the
// first time this solve reaches it, any other is marked for re-filling the
// first time (see level).
func (s *System) reach(v *Variable, cut uint64) {
	if v.round < cut {
		if stamp := uint64(s.solves); v.kept != stamp {
			v.kept = stamp
			s.kept++
		}
		return
	}
	if setBit(s.vbits, v.index) {
		s.level(v)
	}
}

// level handles a variable the dirty closure has just marked for
// re-filling: it pushes v's shared constraints not yet marked, after
// splitting v's constraints if a mutation invalidated the last split.
func (s *System) level(v *Variable) {
	if !v.split {
		v.splitConstraints()
	}
	for _, c := range v.shared {
		if setBit(s.cbits, c.index) {
			s.stackBuf = append(s.stackBuf, c)
		}
	}
}

// splitConstraints lists v's shared constraints and sets its own level:
// the smallest of bound/weight and, over its private constraints,
// remaining/Σw with nothing else charged and nothing else summed —
// capacity/weight. Capacities and weights never change, so until a
// constraint of v turns private or shared, or v's bound changes, the
// split, and each of these divisions, would come out the same.
func (v *Variable) splitConstraints() {
	lam, by := math.Inf(1), uint64(byBound)
	if !math.IsInf(v.bound, 1) {
		lam = v.bound / v.weight
	}
	shared := v.shared[:0]
	for _, c := range v.cnsts {
		if c.binding {
			shared = append(shared, c)
		} else if c.live() > 1 {
			continue // slack: it never sets a level
		} else if l := c.capacity / v.weight; l < lam || l == lam && c.serial < by {
			lam, by = l, c.serial
		}
	}
	v.shared, v.lam, v.by, v.split = shared, lam, by, true
}

// ownEntry is one variable of own: its level and tie key, and its
// position in sys.vars, which is in creation order.
type ownEntry struct {
	lam   float64
	by    uint64
	index int
}

// before reports whether a ranks before b: by level, then tie key, then
// creation order. Plain comparisons: levels are never NaN.
func (a *ownEntry) before(b *ownEntry) bool {
	if a.lam != b.lam {
		return a.lam < b.lam
	}
	if a.by != b.by {
		return a.by < b.by
	}
	return a.index < b.index
}

// ownRun is the length of the runs sortOwn orders by insertion before it
// merges them.
const ownRun = 16

// sortOwn orders own, using buf (grown and returned) as merge scratch.
// Every solve sorts the list it re-fills, usually a few dozen entries, so
// the comparison must inline and read no variable: runs of ownRun are
// insertion-sorted, then merged pairwise, which keeps a solve over
// thousands of levels O(k log k). The order is total (positions are
// unique), so any correct sort produces the same list.
func sortOwn(own, buf []ownEntry) []ownEntry {
	n := len(own)
	for lo := 0; lo < n; lo += ownRun {
		run := own[lo:min(lo+ownRun, n)]
		for i := 1; i < len(run); i++ {
			e, j := run[i], i
			for ; j > 0 && e.before(&run[j-1]); j-- {
				run[j] = run[j-1]
			}
			run[j] = e
		}
	}
	if n <= ownRun {
		return buf
	}
	buf = slices.Grow(buf[:0], n)[:n]
	src, dst := own, buf
	for width := ownRun; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for ; i < mid && j < hi; k++ {
				if src[j].before(&src[i]) {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &own[0] {
		copy(own, src)
	}
	return buf[:0]
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
