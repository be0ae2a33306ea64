package flow

import (
	"math"
	"testing"

	"pilgrim/internal/stats"
)

// The oracle for resumed solves is the from-scratch clone: after every
// Solve of a scripted mutation sequence, every rate and usage must equal,
// bit for bit, what a fresh system built in creation order computes.

// Value palettes with deliberate repeats: equal weights on equal
// capacities produce equal fill levels (λ ties), and the small bounds bind.
var (
	warmWeights = [8]float64{1, 1, 2, 0.5, 3, 1.0 / 3, 0.1, 7.25}
	warmBounds  = [8]float64{0, 0, 0, 0.5, 1, 2.5, 10, 40} // 0: unbounded
	warmCaps    = [8]float64{10, 10, 20, 100, 100, 33, 0.75, 250}
)

// Script opcodes (first byte of each 4-byte record, modulo warmOps).
const (
	warmAdd = iota
	warmRemove
	warmRemoveMany
	warmSetBound
	warmSolve
	warmOps
)

// warmGroups partitions the constraints so scripts grow several components.
const warmGroups = 3

// warmTally is what a script run reports about the solver's work.
type warmTally struct {
	solves     int
	warmSolves int // solves that kept at least one round
	partial    int // solves that re-filled fewer variables than their components hold
}

// requireMatchesScratch fails unless s, just solved, matches a from-scratch
// solve of an identically structured fresh system bit for bit.
func requireMatchesScratch(t testing.TB, s *System, step int) {
	t.Helper()
	clone, cvars := scratchClone(s)
	if err := clone.Solve(); err != nil {
		t.Fatalf("step %d: scratch solve: %v", step, err)
	}
	for i, v := range s.Variables() {
		if got, want := v.Rate(), cvars[i].Rate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: variable %s: rate %v (%x), from scratch %v (%x)",
				step, v.ID(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i, c := range s.Constraints() {
		if got, want := c.Usage(), clone.Constraints()[i].Usage(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: constraint %s: usage %v (%x), from scratch %v (%x)",
				step, c.ID(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// componentSize counts the variables connected to any of seeds.
func componentSize(seeds []*Variable) int {
	seenV := make(map[*Variable]bool)
	seenC := make(map[*Constraint]bool)
	queue := append([]*Variable(nil), seeds...)
	for _, v := range seeds {
		seenV[v] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range v.Constraints() {
			if seenC[c] {
				continue
			}
			seenC[c] = true
			for _, w := range c.Variables() {
				if !seenV[w] {
					seenV[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return len(seenV)
}

// runWarmScript interprets script as 4-byte records — the first sizes the
// system, the rest are mutations and solves — checking every solve
// against the scratch oracle. Any byte string is a valid script.
func runWarmScript(t testing.TB, script []byte) warmTally {
	t.Helper()
	var tally warmTally
	rec := func(i int) (op, a, b, c int) {
		r := script[4*i : 4*i+4]
		return int(r[0]), int(r[1]), int(r[2]), int(r[3])
	}
	n := len(script) / 4
	if n == 0 {
		return tally
	}
	s := NewSystem()
	nc, capSeed, _, _ := rec(0)
	nc = 4 + nc%9
	for i := 0; i < nc; i++ {
		s.NewConstraint("", warmCaps[(capSeed+i*5)%len(warmCaps)])
	}
	solve := func(step int) {
		solvesBefore, warmBefore := s.Solves(), s.WarmSolves()
		if err := s.Solve(); err != nil {
			t.Fatalf("step %d: solve: %v", step, err)
		}
		requireMatchesScratch(t, s, step)
		if s.Solves() == solvesBefore {
			return // nothing changed since the last solve
		}
		if s.LastTouched() != len(s.Touched()) {
			t.Fatalf("step %d: LastTouched %d, Touched() holds %d", step, s.LastTouched(), len(s.Touched()))
		}
		tally.solves++
		if s.WarmSolves() > warmBefore {
			tally.warmSolves++
		}
		if s.LastTouched() < componentSize(s.Touched()) {
			tally.partial++
		}
	}
	for i := 1; i < n; i++ {
		op, a, b, c := rec(i)
		vars, cnsts := s.Variables(), s.Constraints()
		switch op % warmOps {
		case warmAdd:
			// One to three distinct constraints, from one group unless the
			// record asks for a component-merging flow.
			var cands []*Constraint
			for j, cn := range cnsts {
				if c&0x80 != 0 || j%warmGroups == a%warmGroups {
					cands = append(cands, cn)
				}
			}
			k := 1 + c%3
			if k > len(cands) {
				k = len(cands)
			}
			picked := make([]*Constraint, k)
			for j := range picked {
				picked[j] = cands[(b+j)%len(cands)]
			}
			s.AddVariable("", warmWeights[a/warmGroups%len(warmWeights)], warmBounds[(c>>2)%len(warmBounds)], picked...)
		case warmRemove:
			if len(vars) > 0 {
				s.RemoveVariable(vars[a%len(vars)])
			}
		case warmRemoveMany:
			for k := 2 + b%3; k > 0 && len(s.Variables()) > 0; k-- {
				vs := s.Variables()
				s.RemoveVariable(vs[(a+k*c)%len(vs)])
			}
		case warmSetBound:
			if len(vars) > 0 {
				s.SetBound(vars[a%len(vars)], warmBounds[b%len(warmBounds)])
			}
		case warmSolve:
			solve(i)
		}
	}
	solve(n)
	return tally
}

// randomWarmScript draws a removal-heavy script: a build-up of flows, then
// mostly departures between solves, with the occasional arrival and
// rebound.
func randomWarmScript(g *stats.RNG) []byte {
	record := func(op int) []byte {
		return []byte{byte(op), byte(g.Intn(256)), byte(g.Intn(256)), byte(g.Intn(256))}
	}
	script := record(g.Intn(256))
	for i, n := 0, 8+g.Intn(25); i < n; i++ {
		script = append(script, record(warmAdd)...)
	}
	script = append(script, record(warmSolve)...)
	for i, n := 0, 10+g.Intn(40); i < n; i++ {
		var op int
		switch r := g.Float64(); {
		case r < 0.30:
			op = warmRemove
		case r < 0.38:
			op = warmRemoveMany
		case r < 0.70:
			op = warmSolve
		case r < 0.84:
			op = warmAdd
		default:
			op = warmSetBound
		}
		script = append(script, record(op)...)
	}
	return script
}

// TestWarmResolveBitIdentical is the contract of the prefix-preserving
// re-solve: across scripts mixing single and multiple removals, binding
// bounds, λ ties, several components, arrivals and SetBound, every solve
// is bit-identical to a from-scratch clone —
// and the resume path really runs, re-filling less than the disturbed
// components hold.
func TestWarmResolveBitIdentical(t *testing.T) {
	var total warmTally
	for seed := int64(1); seed <= 1200; seed++ {
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("failing seed: %d", seed)
				}
			}()
			tally := runWarmScript(t, randomWarmScript(stats.NewRNG(seed)))
			total.solves += tally.solves
			total.warmSolves += tally.warmSolves
			total.partial += tally.partial
		}()
	}
	t.Logf("%d scripted solves: %d warm, %d re-filled less than their components", total.solves, total.warmSolves, total.partial)
	if total.warmSolves == 0 || total.partial == 0 {
		t.Errorf("resume path not exercised: %d warm solves, %d partial re-fills", total.warmSolves, total.partial)
	}
}

// FuzzWarmResolve feeds arbitrary scripts to the same oracle; the seed
// corpus is in testdata/fuzz/FuzzWarmResolve.
func FuzzWarmResolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("long scripts only repeat what short ones cover")
		}
		runWarmScript(t, script)
	})
}

// Regression: a removal before the first Solve used to leave Variables()
// in swap-remove order, and the first solve took that order as is — so the
// order equal-level bounded variables were fixed in, the order their rates
// were subtracted from a shared constraint, and Touched() all differed
// from what the same system solved after an earlier Solve (which sorted by
// creation serial) would produce.
func TestRemoveBeforeFirstSolveMatchesIncremental(t *testing.T) {
	build := func(solveFirst bool) (*System, *Constraint) {
		s := NewSystem()
		if solveFirst {
			if err := s.Solve(); err != nil { // empty: only clears the initial state
				t.Fatal(err)
			}
		}
		c := s.NewConstraint("link", 1)
		doomed := s.AddVariable("doomed", 1, 0, c)
		// Three flows whose bounds all sit at fill level 0.1 are fixed in
		// creation order, and what is left for rest depends on that order:
		// 1-0.1-0.2-0.2 is not 1-0.2-0.1-0.2 in floating point. The last
		// one is what swap-removal moved to the front.
		s.AddVariable("a", 1, 0.1, c)
		s.AddVariable("b", 2, 0.2, c)
		s.AddVariable("rest", 1, 0, c)
		s.AddVariable("c", 2, 0.2, c)
		s.RemoveVariable(doomed)
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		return s, c
	}
	first, fc := build(false)
	incr, ic := build(true)
	for i, v := range first.Variables() {
		w := incr.Variables()[i]
		if v.ID() != w.ID() || math.Float64bits(v.Rate()) != math.Float64bits(w.Rate()) {
			t.Errorf("variable %d: first solve %s=%v, incremental %s=%v", i, v.ID(), v.Rate(), w.ID(), w.Rate())
		}
	}
	if math.Float64bits(fc.Usage()) != math.Float64bits(ic.Usage()) {
		t.Errorf("usage: first solve %v, incremental %v", fc.Usage(), ic.Usage())
	}
	if len(first.Touched()) != len(incr.Touched()) {
		t.Fatalf("Touched(): first solve %d variables, incremental %d", len(first.Touched()), len(incr.Touched()))
	}
	for i, v := range first.Touched() {
		if w := incr.Touched()[i]; v.ID() != w.ID() {
			t.Errorf("Touched()[%d]: first solve %s, incremental %s", i, v.ID(), w.ID())
		}
	}
	requireMatchesScratch(t, first, 0)
}

// A resumed solve re-fills only what is still connected to the departed
// variable through variables that were unfixed when its round began: a
// variable fixed earlier is kept, and shields what lies behind it.
func TestWarmResolveKeepsShieldedVariables(t *testing.T) {
	s := NewSystem()
	c1 := s.NewConstraint("c1", 100)
	c2 := s.NewConstraint("c2", 100)
	early := s.AddVariable("early", 1, 5, c1, c2) // bound 5 binds first: round 1
	behind := s.AddVariable("behind", 1, 0, c2)   // alone behind early on c2
	leaver := s.AddVariable("leaver", 1, 0, c1)
	stayer := s.AddVariable("stayer", 1, 0, c1)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.LastTouched() != 4 || s.WarmSolves() != 0 {
		t.Fatalf("first solve: touched %d, %d warm solves", s.LastTouched(), s.WarmSolves())
	}
	behindBits := math.Float64bits(behind.Rate())

	s.RemoveVariable(leaver)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	requireMatchesScratch(t, s, 1)
	if got := s.Touched(); len(got) != 1 || got[0] != stayer {
		t.Errorf("after leaver left, Touched() holds %d variables, want only stayer", len(got))
	}
	if s.WarmSolves() != 1 || s.VariablesKept() != 1 {
		t.Errorf("warm solves %d, variables kept %d, want 1 and 1 (early)", s.WarmSolves(), s.VariablesKept())
	}
	if early.Rate() != 5 || math.Float64bits(behind.Rate()) != behindBits || stayer.Rate() != 95 {
		t.Errorf("rates early=%v behind=%v stayer=%v", early.Rate(), behind.Rate(), stayer.Rate())
	}

	// behind kept the round number of the first solve, stayer has a newer
	// one: removing behind must still resume correctly, and not reach
	// stayer on the far side of early.
	s.RemoveVariable(behind)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	requireMatchesScratch(t, s, 2)
	if s.LastTouched() != 0 {
		t.Errorf("after behind left, %d variables re-filled, want 0", s.LastTouched())
	}

	// Any other mutation re-fills the whole component.
	s.SetBound(stayer, 50)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	requireMatchesScratch(t, s, 3)
	if s.LastTouched() != 2 {
		t.Errorf("after SetBound, %d variables re-filled, want 2", s.LastTouched())
	}
}
