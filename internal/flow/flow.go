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
	mark   uint64  // dirty-closure epoch stamp (scratch)
	lam    float64 // bound/weight fill level during a solve (scratch)

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
	mark      uint64      // dirty-closure epoch stamp (scratch)
	remaining float64     // residual capacity during a solve (scratch)
	unfixed   int         // unfixed crossing variables during a solve (scratch)
	active    []*Variable // not-yet-fixed crossing variables, compacted per round (scratch)
	wsum      float64     // Σ weight over active, valid while !wstale (scratch)
	wstale    bool        // a crossing variable fixed since wsum was summed (scratch)

	// log holds the residual state after each fix that charged this
	// constraint, in fix order, so a later solve can rewind the constraint
	// to the start of any round (see Solve).
	log []fillRecord
}

// fillRecord is a constraint's (remaining, used) after one crossing
// variable was fixed in the given round.
type fillRecord struct {
	round           uint64
	remaining, used float64
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
// Solve.
func (c *Constraint) Usage() float64 { return c.used }

// Variables returns the variables crossing this constraint.
func (c *Constraint) Variables() []*Variable { return c.vars }

// Saturated reports whether the last Solve used the full capacity, within
// a relative tolerance.
func (c *Constraint) Saturated() bool {
	return c.used >= c.capacity*(1-1e-9)
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
	epoch  uint64
	serial uint64 // next creation serial

	// Dirty bookkeeping between solves: dirtyVars/dirtyCnsts seed the
	// affected-component closure; they may contain duplicates or removed
	// variables, both filtered during closure.
	dirtyVars  []*Variable
	dirtyCnsts []*Constraint

	// round numbers the filling rounds of every solve since the last
	// Reset. cut is the round the next Solve must re-run from: noCut right
	// after a solve, lowered by RemoveVariable to the round that fixed the
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
	dirtyVBuf  []*Variable
	dirtyCBuf  []*Constraint
	stackBuf   []*Constraint
	boundedBuf []*Variable
}

// noCut is System.cut when nothing has disturbed the last solve.
const noCut = math.MaxUint64

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
	c.id, c.capacity, c.serial = id, capacity, s.serial
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
// rounds from the one that fixed v onward (see Solve). Removing a variable
// that does not belong to this system (or was already removed) panics.
func (s *System) RemoveVariable(v *Variable) {
	if v.sys != s {
		panic(fmt.Errorf("flow: variable %q is not in this system", v.ID()))
	}
	for _, c := range v.cnsts {
		for i, w := range c.vars {
			if w == v {
				// Ordered removal keeps c.vars in attachment order, so
				// weight summations visit the survivors in the same order
				// a from-scratch build would.
				c.vars = append(c.vars[:i], c.vars[i+1:]...)
				break
			}
		}
		s.dirtyCnsts = append(s.dirtyCnsts, c)
	}
	// Ordered removal, for the same reason: s.vars stays in serial order.
	last := len(s.vars) - 1
	copy(s.vars[v.index:], s.vars[v.index+1:])
	s.vars[last] = nil
	s.vars = s.vars[:last]
	for i := v.index; i < last; i++ {
		s.vars[i].index = i
	}
	if v.round < s.cut {
		s.cut = v.round
	}
	v.sys = nil
	v.cnsts = v.cnsts[:0]
	v.data = nil
	s.varFree = append(s.varFree, v)
	s.solved = false
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
// full. Calling Solve on an already-solved system is a no-op.
func (s *System) Solve() error {
	if s.solved {
		return nil
	}
	s.solves++

	// Gather the dirty sub-system: every constraint reachable from a
	// mutation seed, and every variable to re-fill, walking shared
	// constraints but not through the variables fixed before round cut —
	// those are kept, and what lies behind them is as undisturbed as
	// another component. (When cut is 0 nothing is kept and this is the
	// closure over whole components. When it is not, only removals
	// happened, so every variable reached was fixed by an earlier solve:
	// none has round 0.) Collection happens during the traversal itself
	// (so the cost is proportional to the dirty set, not the whole system)
	// and is then put in creation order so the solve visits resources in a
	// stable order. The collection slices are per-system scratch, so
	// steady-state solves allocate nothing.
	cut := s.cut
	kept := 0
	dirtyV := s.dirtyVBuf[:0]
	dirtyC := s.dirtyCBuf[:0]
	s.epoch++
	stack := s.stackBuf[:0]
	markC := func(c *Constraint) {
		if c.mark != s.epoch {
			c.mark = s.epoch
			dirtyC = append(dirtyC, c)
			stack = append(stack, c)
		}
	}
	markV := func(v *Variable) {
		if v.mark == s.epoch {
			return
		}
		v.mark = s.epoch
		if v.round < cut {
			kept++
			return
		}
		dirtyV = append(dirtyV, v)
		for _, c := range v.cnsts {
			markC(c)
		}
	}
	for _, v := range s.dirtyVars {
		if v.sys == s { // skip variables removed after being added
			markV(v)
		}
	}
	for _, c := range s.dirtyCnsts {
		markC(c)
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range c.vars {
			markV(v)
		}
	}
	s.stackBuf = stack[:0]
	// s.cnsts and s.vars are already in creation order, so when a large
	// share of them is dirty a marked sweep is cheaper than a comparison
	// sort; both produce the identical sequence.
	if 4*len(dirtyC) >= len(s.cnsts) {
		dirtyC = dirtyC[:0]
		for _, c := range s.cnsts {
			if c.mark == s.epoch {
				dirtyC = append(dirtyC, c)
			}
		}
	} else {
		slices.SortFunc(dirtyC, func(a, b *Constraint) int { return cmp.Compare(a.serial, b.serial) })
	}
	if 4*len(dirtyV) >= len(s.vars) {
		dirtyV = dirtyV[:0]
		for _, v := range s.vars {
			if v.mark == s.epoch && v.round >= cut {
				dirtyV = append(dirtyV, v)
			}
		}
	} else {
		slices.SortFunc(dirtyV, func(a, b *Variable) int { return cmp.Compare(a.serial, b.serial) })
	}
	s.dirtyVBuf = dirtyV
	s.dirtyCBuf = dirtyC

	for _, v := range dirtyV {
		if len(v.cnsts) == 0 && math.IsInf(v.bound, 1) {
			return fmt.Errorf("%w: %q", ErrUnboundedVariable, v.ID())
		}
	}

	// Rewind the dirty sub-system to the start of round cut: its variables
	// restart unfixed at rate 0, its constraints at what the kept
	// variables left them. Until this solve completes there is no
	// consistent state to resume from, hence the zeroed s.cut.
	//
	// Three working lists keep the progressive-filling rounds proportional
	// to what is still unfixed rather than to the whole dirty set:
	//
	//   - each constraint snapshots its unfixed crossing variables into
	//     c.active, compacted as variables fix (attachment order preserved,
	//     so the per-round weight sums are bit-identical to a full rescan);
	//   - work compacts away constraints whose variables are all fixed
	//     (relative serial order preserved, so λ* tie-breaking between
	//     equal constraints is unchanged);
	//   - bounded holds the rate-bounded variables in serial order, stably
	//     sorted by their constant fill level λ_v = bound/weight the first
	//     time a round's constraint level does not already undercut all of
	//     them: from then on the first unfixed entry is the candidate each
	//     round, replacing a full rescan.
	s.cut = 0
	if kept > 0 {
		s.warmSolves++
		s.totalKept += kept
	}
	bounded := s.boundedBuf[:0]
	minLam := math.Inf(1) // lower bound on the unfixed entries of bounded
	for _, v := range dirtyV {
		v.fixed = false
		v.value = 0
		if !math.IsInf(v.bound, 1) {
			v.lam = v.bound / v.weight
			if v.lam < minLam {
				minLam = v.lam
			}
			bounded = append(bounded, v)
		}
	}
	for _, c := range dirtyC {
		n := len(c.log)
		for n > 0 && c.log[n-1].round >= cut {
			n--
		}
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
		v.fixed = true
		v.value = rate
		v.round = s.round
		unfixed--
		for _, c := range v.cnsts {
			c.remaining -= rate
			if c.remaining < 0 {
				c.remaining = 0
			}
			c.unfixed--
			c.used += rate
			c.wstale = true
			c.log = append(c.log, fillRecord{s.round, c.remaining, c.used})
		}
	}
	boundedSorted, boundedHead := false, 0
	for unfixed > 0 {
		s.round++
		// Find the minimal fill level λ* at which something saturates.
		// For constraint c: λ_c = remaining_c / Σ weights of unfixed vars.
		// For a bounded variable v: λ_v = bound_v / weight_v.
		// Weight sums are recomputed from scratch — never maintained by
		// subtraction, which accumulates floating-point residue that can
		// make an exhausted constraint look populated and stall the loop —
		// but only for constraints a fix actually disturbed (wstale): an
		// undisturbed constraint's sum is the same bits either way.
		lambda := math.Inf(1)
		var satCnst *Constraint
		var satVar *Variable
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
				lambda, satCnst, satVar = l, c, nil
			}
		}
		work = work[:m]
		if minLam < lambda {
			if !boundedSorted {
				slices.SortStableFunc(bounded, func(a, b *Variable) int { return cmp.Compare(a.lam, b.lam) })
				boundedSorted = true
			}
			for boundedHead < len(bounded) && bounded[boundedHead].fixed {
				boundedHead++
			}
			minLam = math.Inf(1)
			if boundedHead < len(bounded) {
				v := bounded[boundedHead]
				minLam = v.lam
				if v.lam < lambda {
					lambda, satCnst, satVar = v.lam, nil, v
				}
			}
		}

		if satCnst == nil && satVar == nil {
			// No constraint limits the remaining variables: they are all
			// unbounded through constraints with zero unfixed weight.
			// This cannot happen because every unfixed variable either has
			// a bound (covered above) or crosses a constraint whose
			// unfixed weight includes its own positive weight.
			return errors.New("flow: internal error: no saturating resource found")
		}

		if satVar != nil {
			fix(satVar, satVar.bound)
			continue
		}
		// Fix every unfixed variable crossing the saturated constraint at
		// weight-proportional share of λ*.
		for _, v := range satCnst.active {
			if !v.fixed {
				fix(v, v.weight*lambda)
			}
		}
	}
	s.boundedBuf = bounded[:0]

	s.lastTouched = len(dirtyV)
	s.totalTouched += len(dirtyV)
	s.touched = dirtyV
	s.dirtyVars = s.dirtyVars[:0]
	s.dirtyCnsts = s.dirtyCnsts[:0]
	s.cut = noCut
	s.solved = true
	return nil
}

// Touched returns the variables re-filled by the most recent effective
// Solve, in creation order — the only variables whose Rate may have
// changed. A resumed solve leaves out of it the variables it kept fixed
// and whatever they shield from the departed ones. The slice is valid
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
// effective solves.
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
