package flow

import "slices"

// Checkpoint/Restore give the simulation layer warm-start forking: a base
// scenario's solver state is captured once and each what-if overlay
// restores it in O(state), then re-solves only the constraints whose
// capacities the overlay actually changed (SetCapacity no-ops on equal
// values, so re-asserting every capacity dirties nothing but the delta).
//
// A checkpoint is a self-contained value copy — ids, weights, bounds,
// capacities, allocated rates, attachment lists (in attachment order),
// creation serials, the pending dirty sets, and the record of the last
// fill (each variable's round, each constraint's log) that lets the next
// Solve resume — everything that feeds Solve's arithmetic, its
// deterministic ordering or its work statistics. Scratch fields (epoch
// marks, per-solve fill levels and work lists) are deliberately excluded:
// they are rebuilt by the next Solve and never influence results. Caller
// backreferences (Variable.Data) are also excluded; Restore returns the
// rebuilt variables and constraints in checkpoint order so the caller can
// re-link its own side.

// cpVar is the captured state of one Variable. Constraint attachments are
// stored as indices into the checkpoint's constraint list.
type cpVar struct {
	id     string
	weight float64
	bound  float64
	value  float64
	fixed  bool
	round  uint64
	serial uint64
	cnsts  []int32
	dirty  bool
}

// cpCnst is the captured state of one Constraint. Crossing variables are
// stored as indices into the checkpoint's variable list, in attachment
// order (the order weight summations visit them).
type cpCnst struct {
	id       string
	capacity float64
	used     float64
	serial   uint64
	vars     []int32
	log      []fillRecord
	dirty    bool
}

// Checkpoint is a compact, immutable copy of a System's logical state.
// It is independent of the system it was taken from: the source can keep
// mutating (or be Reset) and any number of systems can Restore from it.
type Checkpoint struct {
	serial       uint64
	solved       bool
	round, cut   uint64
	solves       int
	lastTouched  int
	totalTouched int
	warmSolves   int
	totalKept    int
	vars         []cpVar
	cnsts        []cpCnst
}

// NumVariables returns how many variables the checkpoint holds.
func (ck *Checkpoint) NumVariables() int { return len(ck.vars) }

// NumConstraints returns how many constraints the checkpoint holds.
func (ck *Checkpoint) NumConstraints() int { return len(ck.cnsts) }

// Checkpoint captures the system's current logical state. The variable
// (resp. constraint) order of the capture is the order of Variables()
// (resp. Constraints()), so callers can record side mappings by index.
func (s *System) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		serial:       s.serial,
		solved:       s.solved,
		round:        s.round,
		cut:          s.cut,
		solves:       s.solves,
		lastTouched:  s.lastTouched,
		totalTouched: s.totalTouched,
		warmSolves:   s.warmSolves,
		totalKept:    s.totalKept,
		vars:         make([]cpVar, len(s.vars)),
		cnsts:        make([]cpCnst, len(s.cnsts)),
	}
	cidx := make(map[*Constraint]int32, len(s.cnsts))
	for i, c := range s.cnsts {
		cidx[c] = int32(i)
	}
	for i, v := range s.vars {
		cv := &ck.vars[i]
		cv.id, cv.weight, cv.bound, cv.value = v.id, v.weight, v.bound, v.value
		cv.fixed, cv.round, cv.serial = v.fixed, v.round, v.serial
		if len(v.cnsts) > 0 {
			cv.cnsts = make([]int32, len(v.cnsts))
			for j, c := range v.cnsts {
				cv.cnsts[j] = cidx[c]
			}
		}
	}
	for i, c := range s.cnsts {
		cc := &ck.cnsts[i]
		cc.id, cc.capacity, cc.used, cc.serial = c.id, c.capacity, c.used, c.serial
		cc.log = slices.Clone(c.log)
		if len(c.vars) > 0 {
			cc.vars = make([]int32, len(c.vars))
			for j, v := range c.vars {
				cc.vars[j] = int32(v.index)
			}
		}
	}
	// Pending dirty sets: membership flags, deduplicated. Seeds only feed
	// the closure traversal (collected sets are re-sorted by serial), so
	// membership, not order or multiplicity, is what must survive.
	for _, v := range s.dirtyVars {
		if v.sys == s { // skip variables removed after being dirtied
			ck.vars[v.index].dirty = true
		}
	}
	for _, c := range s.dirtyCnsts {
		if i, ok := cidx[c]; ok {
			ck.cnsts[i].dirty = true
		}
	}
	return ck
}

// Restore replaces the system's contents with the checkpointed state.
// Existing variables and constraints are dropped (their structs recycled,
// as in Reset). The rebuilt variables and constraints are returned in
// checkpoint order — the Variables()/Constraints() order at capture time —
// so the caller can re-attach its Data backreferences.
//
// A restored system continues bit-identically to the captured one: same
// serials, same attachment and iteration orders, same pending dirty sets,
// same allocated rates for untouched components, and the same rounds to
// resume from, so its work statistics match too.
func (s *System) Restore(ck *Checkpoint) (vars []*Variable, cnsts []*Constraint) {
	s.Reset()
	cnsts = make([]*Constraint, len(ck.cnsts))
	for i := range ck.cnsts {
		cc := &ck.cnsts[i]
		c := s.recycleConstraint()
		c.id, c.capacity, c.used, c.serial = cc.id, cc.capacity, cc.used, cc.serial
		c.log = append(c.log, cc.log...)
		cnsts[i] = c
		s.cnsts = append(s.cnsts, c)
	}
	vars = make([]*Variable, len(ck.vars))
	for i := range ck.vars {
		cv := &ck.vars[i]
		v := s.recycleVariable()
		v.id, v.weight, v.bound, v.value = cv.id, cv.weight, cv.bound, cv.value
		v.fixed, v.round = cv.fixed, cv.round
		v.sys, v.index, v.serial = s, i, cv.serial
		for _, ci := range cv.cnsts {
			v.cnsts = append(v.cnsts, cnsts[ci])
		}
		vars[i] = v
		s.vars = append(s.vars, v)
	}
	for i := range ck.cnsts {
		c := cnsts[i]
		for _, vi := range ck.cnsts[i].vars {
			c.vars = append(c.vars, vars[vi])
		}
	}
	for i := range ck.vars {
		if ck.vars[i].dirty {
			s.dirtyVars = append(s.dirtyVars, vars[i])
		}
	}
	for i := range ck.cnsts {
		if ck.cnsts[i].dirty {
			s.dirtyCnsts = append(s.dirtyCnsts, cnsts[i])
		}
	}
	s.serial = ck.serial
	s.solved = ck.solved
	s.round, s.cut = ck.round, ck.cut
	s.solves, s.lastTouched, s.totalTouched = ck.solves, ck.lastTouched, ck.totalTouched
	s.warmSolves, s.totalKept = ck.warmSolves, ck.totalKept
	s.touched = nil
	return vars, cnsts
}

// Fork returns a new independent System restored from the receiver's
// current state, along with the forked variables and constraints in
// Variables()/Constraints() order. Equivalent to Restore(Checkpoint())
// on a fresh system; the receiver is left untouched.
func (s *System) Fork() (*System, []*Variable, []*Constraint) {
	ns := NewSystem()
	vars, cnsts := ns.Restore(s.Checkpoint())
	return ns, vars, cnsts
}
