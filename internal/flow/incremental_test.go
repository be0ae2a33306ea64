package flow

import (
	"math"
	"testing"
	"testing/quick"

	"pilgrim/internal/stats"
)

// scratchClone rebuilds the live structure of s as a fresh system, so a
// from-scratch solve can be compared against incremental solving. The
// returned variables are index-aligned with s.Variables(), which is in
// creation order: the clone creates and attaches in the order the live
// system did, so its arithmetic can be compared bit for bit.
func scratchClone(s *System) (*System, []*Variable) {
	clone := NewSystem()
	cmap := make(map[*Constraint]*Constraint, len(s.Constraints()))
	for _, c := range s.Constraints() {
		cmap[c] = clone.NewConstraint(c.ID(), c.Capacity())
	}
	vars := make([]*Variable, len(s.Variables()))
	for i, v := range s.Variables() {
		bound := 0.0
		if !math.IsInf(v.Bound(), 1) {
			bound = v.Bound()
		}
		nv := clone.NewVariable(v.ID(), v.Weight(), bound)
		for _, c := range v.Constraints() {
			clone.MustAttach(nv, cmap[c])
		}
		vars[i] = nv
	}
	return clone, vars
}

// mutateRandomly applies n random add/remove/rebound operations to s.
func mutateRandomly(s *System, g *stats.RNG, n int) {
	for op := 0; op < n; op++ {
		switch {
		case g.Float64() < 0.35 && len(s.Variables()) > 0:
			s.RemoveVariable(s.Variables()[g.Intn(len(s.Variables()))])
		case g.Float64() < 0.2 && len(s.Variables()) > 0:
			s.SetBound(s.Variables()[g.Intn(len(s.Variables()))], 0.5+g.Float64()*30)
		default:
			bound := 0.0
			if g.Float64() < 0.3 {
				bound = 0.5 + g.Float64()*20
			}
			cs := s.Constraints()
			k := 1 + g.Intn(3)
			if k > len(cs) {
				k = len(cs)
			}
			picked := make([]*Constraint, 0, k)
			for _, ci := range g.Sample(len(cs), k) {
				picked = append(picked, cs[ci])
			}
			s.AddVariable("v", 0.1+g.Float64()*9.9, bound, picked...)
		}
	}
}

// Property (the tentpole's correctness contract): after any random
// sequence of AddVariable / RemoveVariable / SetBound mutations, the
// incremental Solve produces the same allocation as a from-scratch solve
// of an identically structured fresh system, bit for bit.
func TestIncrementalMatchesScratch(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		s := NewSystem()
		for i := 0; i < 6; i++ {
			s.NewConstraint("c", 1+g.Float64()*99)
		}
		mutateRandomly(s, g, 10)
		if err := s.Solve(); err != nil {
			return false
		}
		// Several rounds of mutation + incremental solve.
		for round := 0; round < 4; round++ {
			mutateRandomly(s, g, 3)
			if err := s.Solve(); err != nil {
				return false
			}
			scratch, svars := scratchClone(s)
			if err := scratch.Solve(); err != nil {
				return false
			}
			for i, v := range s.Variables() {
				want := svars[i].Rate()
				got := v.Rate()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Logf("seed %d round %d: var %d incremental %v scratch %v",
						seed, round, i, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Regression: flows in components untouched by a mutation keep their
// previous allocation bit-for-bit (no recomputation noise), and the
// solver reports having touched only the disturbed component.
func TestUntouchedFlowsBitIdentical(t *testing.T) {
	s := NewSystem()
	// Component A: two flows on one link.
	ca := s.NewConstraint("A", 0.92*125e6)
	a1 := s.AddVariable("a1", 1/4.16e-3, 0, ca)
	a2 := s.AddVariable("a2", 1/5.096e-2, 0, ca)
	// Component B: three flows on two links, disjoint from A.
	cb1 := s.NewConstraint("B1", 73.5e6)
	cb2 := s.NewConstraint("B2", 41.2e6)
	b1 := s.AddVariable("b1", 1/0.003, 0, cb1, cb2)
	b2 := s.AddVariable("b2", 1/0.007, 0, cb1)
	b3 := s.AddVariable("b3", 1/0.011, 19.9e6, cb2)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	before := map[*Variable]float64{b1: b1.Rate(), b2: b2.Rate(), b3: b3.Rate()}
	beforeUse := []float64{cb1.Usage(), cb2.Usage()}

	// Disturb only component A: a new contender plus a removal.
	a3 := s.AddVariable("a3", 1/0.002, 0, ca)
	s.RemoveVariable(a2)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}

	if got := s.LastTouched(); got != 2 {
		t.Errorf("LastTouched = %d, want 2 (a1 and a3 only)", got)
	}
	for v, want := range before {
		if got := v.Rate(); got != want {
			t.Errorf("untouched flow %s: rate %v != previous %v (must be bit-identical)",
				v.ID(), got, want)
		}
	}
	if cb1.Usage() != beforeUse[0] || cb2.Usage() != beforeUse[1] {
		t.Errorf("untouched constraint usage drifted: %v,%v != %v,%v",
			cb1.Usage(), cb2.Usage(), beforeUse[0], beforeUse[1])
	}
	// And component A did change: a1 now shares with a3.
	if a1.Rate() >= 0.92*125e6*(1-1e-9) {
		t.Errorf("a1 = %v, should be sharing with a3", a1.Rate())
	}
	if a3.Rate() <= 0 {
		t.Errorf("a3 = %v, want > 0", a3.Rate())
	}
}

// RemoveVariable must return its capacity to the surviving flows.
func TestRemoveVariableFreesCapacity(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("link", 100)
	v1 := s.AddVariable("v1", 1, 0, c)
	v2 := s.AddVariable("v2", 1, 0, c)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1.Rate()-50) > 1e-9 {
		t.Fatalf("shared rate = %v, want 50", v1.Rate())
	}
	s.RemoveVariable(v2)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1.Rate()-100) > 1e-9 {
		t.Errorf("solo rate after removal = %v, want 100", v1.Rate())
	}
	if len(s.Variables()) != 1 {
		t.Errorf("system holds %d variables, want 1", len(s.Variables()))
	}
}

// SetBound with an unchanged value must not dirty the system; with a new
// value it must re-solve the component.
func TestSetBoundDirtiesOnlyOnChange(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("link", 100)
	v := s.AddVariable("v", 1, 30, c)
	free := s.AddVariable("free", 1, 0, c)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	solves := s.Solves()
	s.SetBound(v, 30) // no change
	if !s.Solved() {
		t.Error("unchanged SetBound dirtied the system")
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.Solves() != solves {
		t.Error("no-op Solve recomputed")
	}
	s.SetBound(v, 10)
	if s.Solved() {
		t.Error("changed SetBound left the system solved")
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Rate()-10) > 1e-9 || math.Abs(free.Rate()-90) > 1e-9 {
		t.Errorf("rates after rebound = %v, %v, want 10, 90", v.Rate(), free.Rate())
	}
}

// Solver statistics must account variables touched per solve.
func TestSolverStats(t *testing.T) {
	s := NewSystem()
	c1 := s.NewConstraint("c1", 10)
	c2 := s.NewConstraint("c2", 10)
	s.AddVariable("x", 1, 0, c1)
	s.AddVariable("y", 1, 0, c2)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.Solves() != 1 || s.LastTouched() != 2 || s.TotalTouched() != 2 {
		t.Errorf("after full solve: solves=%d last=%d total=%d",
			s.Solves(), s.LastTouched(), s.TotalTouched())
	}
	s.AddVariable("z", 1, 0, c2)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.Solves() != 2 || s.LastTouched() != 2 || s.TotalTouched() != 4 {
		t.Errorf("after incremental solve: solves=%d last=%d total=%d (want 2, 2, 4)",
			s.Solves(), s.LastTouched(), s.TotalTouched())
	}
}

// Removing a variable twice (or from the wrong system) must panic loudly
// rather than corrupt membership.
func TestRemoveVariableMisusePanics(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("c", 1)
	v := s.AddVariable("v", 1, 0, c)
	s.RemoveVariable(v)
	defer func() {
		if recover() == nil {
			t.Error("double remove did not panic")
		}
	}()
	s.RemoveVariable(v)
}

// An unbounded, unconstrained variable introduced by a mutation must
// still be rejected by the incremental solve path.
func TestIncrementalUnboundedVariableError(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("c", 1)
	s.AddVariable("ok", 1, 0, c)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	s.NewVariable("lonely", 1, 0)
	if err := s.Solve(); err == nil {
		t.Fatal("expected ErrUnboundedVariable from incremental solve")
	}
}

// BenchmarkIncrementalChurn measures the tentpole's hot pattern: a large
// stable population with one flow leaving and one arriving per solve —
// the engine's per-event workload.
func BenchmarkIncrementalChurn(b *testing.B) {
	g := stats.NewRNG(11)
	s := NewSystem()
	cs := make([]*Constraint, 400)
	for i := range cs {
		cs[i] = s.NewConstraint("c", 50+g.Float64()*100)
	}
	pickTwo := func() (*Constraint, *Constraint) {
		i := g.Intn(len(cs))
		j := (i + 1 + g.Intn(len(cs)-1)) % len(cs)
		return cs[i], cs[j]
	}
	for i := 0; i < 800; i++ {
		c1, c2 := pickTwo()
		s.AddVariable("v", 0.1+g.Float64()*9.9, 0, c1, c2)
	}
	if err := s.Solve(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := s.Variables()
		s.RemoveVariable(vs[g.Intn(len(vs))])
		c1, c2 := pickTwo()
		s.AddVariable("v", 0.1+g.Float64()*9.9, 0, c1, c2)
		if err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
