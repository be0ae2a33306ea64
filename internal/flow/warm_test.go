package flow

import (
	"math"
	"testing"

	"pilgrim/internal/stats"
)

// The oracles for resumed solves are the from-scratch clone and the
// reference filler: after every Solve of a scripted mutation sequence,
// every rate and usage must equal, bit for bit, what a fresh system built
// in creation order computes, and what a progressive filler with none of
// the solver's shortcuts computes on the live structure.

// Value palettes with deliberate repeats: equal weights on equal
// capacities produce equal fill levels (λ ties), and the small bounds bind.
var (
	warmWeights = [8]float64{1, 1, 2, 0.5, 3, 1.0 / 3, 0.1, 7.25}
	warmBounds  = [8]float64{0, 0, 0, 0.5, 1, 2.5, 10, 40} // 0: unbounded
	warmCaps    = [8]float64{10, 10, 20, 100, 100, 33, 0.75, 250}
)

// Script opcodes (first byte of each 4-byte record, modulo warmOps). For
// warmAdd, op/warmOps%3 more is how many fresh constraints the new flow
// alone crosses (0, NIC up, NIC up and down).
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

// A warmRemove record whose second and third operands are warmReshareB and
// warmReshareC is a re-share: it removes a variable from a binding
// constraint with two, leaving it private, and at once adds a flow that
// crosses that constraint alone, sharing it again before the next solve
// (the sequence of the corpus seed binding-turns-private-then-slack). With
// no such constraint it is a plain removal.
const (
	warmReshareB = 0xa5
	warmReshareC = 0x5a
)

// warmTally is what a script run reports about the solver's work.
type warmTally struct {
	solves          int
	warmSolves      int // solves that kept at least one round
	partial         int // solves that re-filled fewer variables than their components hold
	privateWins     int // rounds the reference filler gave to a one-variable constraint
	sharedToPrivate int // constraints shared at one solve and private at the next
	quiet           int // removals that left nothing for the next solve to re-fill
	// Shared constraints binding at one solve and slack at the next, with
	// fewer variables; slack at one and binding at the next, with more.
	bindingToSlack, slackToBinding int
	// Re-shares whose removal was not quiet: the binding constraint it
	// left private reached the solve shared again.
	reshares int
}

func (t *warmTally) add(o warmTally) {
	t.solves += o.solves
	t.warmSolves += o.warmSolves
	t.partial += o.partial
	t.privateWins += o.privateWins
	t.sharedToPrivate += o.sharedToPrivate
	t.quiet += o.quiet
	t.bindingToSlack += o.bindingToSlack
	t.slackToBinding += o.slackToBinding
	t.reshares += o.reshares
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

// referenceFill is the rule the solver's shortcuts must reproduce:
// progressive filling on the live structure of s with nothing kept from
// earlier solves, no private levels and no candidate lists. Each round
// scans every constraint in creation order for the first minimal level
// remaining/Σw over the unfixed variables crossing it (weights summed in
// attachment order), lets a bound level bound/weight undercut it only
// strictly (the first minimal one in creation order), and fixes what
// wins. It returns rates and usages index-aligned with s.Variables() and
// s.Constraints(), and how many rounds a one-variable constraint won.
func referenceFill(t testing.TB, s *System) (rates, usages []float64, privateWins int) {
	t.Helper()
	vars, cnsts := s.Variables(), s.Constraints()
	vpos := make(map[*Variable]int, len(vars))
	for i, v := range vars {
		vpos[v] = i
	}
	// members[j] and crossed[i] are the attachments as positions.
	members := make([][]int, len(cnsts))
	crossed := make([][]int, len(vars))
	remaining := make([]float64, len(cnsts))
	for j, c := range cnsts {
		remaining[j] = c.Capacity()
		for _, v := range c.Variables() {
			members[j] = append(members[j], vpos[v])
			crossed[vpos[v]] = append(crossed[vpos[v]], j)
		}
	}
	rates = make([]float64, len(vars))
	usages = make([]float64, len(cnsts))
	fixed := make([]bool, len(vars))
	fix := func(i int, rate float64) {
		// rate may be an inlined product: float64() rounds it, so no
		// GOARCH fuses it into the updates below (make fma-check).
		rate = float64(rate)
		fixed[i] = true
		rates[i] = rate
		for _, j := range crossed[i] {
			remaining[j] -= rate
			if remaining[j] < 0 {
				remaining[j] = 0
			}
		}
	}
	for left := len(vars); left > 0; {
		lambda, sat, bounded := math.Inf(1), -1, -1
		for j := range cnsts {
			w, unfixed := 0.0, false
			for _, i := range members[j] {
				if !fixed[i] {
					w += vars[i].Weight()
					unfixed = true
				}
			}
			if l := remaining[j] / w; unfixed && l < lambda {
				lambda, sat = l, j
			}
		}
		for i, v := range vars {
			if l := v.Bound() / v.Weight(); !fixed[i] && l < lambda {
				lambda, bounded = l, i
			}
		}
		switch {
		case bounded >= 0:
			fix(bounded, vars[bounded].Bound())
			left--
		case sat >= 0:
			if len(members[sat]) == 1 {
				privateWins++
			}
			for _, i := range members[sat] {
				if !fixed[i] {
					fix(i, vars[i].Weight()*lambda)
					left--
				}
			}
		default:
			t.Fatalf("reference filler: nothing saturates with %d variables unfixed", left)
		}
	}
	// A constraint's usage is the sum of its variables' rates in
	// attachment order, as Constraint.Usage computes it.
	for j := range cnsts {
		for _, i := range members[j] {
			usages[j] += rates[i]
		}
	}
	return rates, usages, privateWins
}

// requireMatchesReference fails unless s, just solved, matches
// referenceFill bit for bit, and returns the filler's private wins.
func requireMatchesReference(t testing.TB, s *System, step int) int {
	t.Helper()
	rates, usages, privateWins := referenceFill(t, s)
	for i, v := range s.Variables() {
		if got, want := v.Rate(), rates[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: variable %s: rate %v (%x), reference %v (%x)",
				step, v.ID(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i, c := range s.Constraints() {
		if got, want := c.Usage(), usages[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: constraint %s: usage %v (%x), reference %v (%x)",
				step, c.ID(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return privateWins
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
// against both oracles. Any byte string is a valid script.
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
	// members and binding hold each constraint's variable count and class
	// at the last effective solve; onlyQuiet is whether every mutation
	// since then was a quiet removal.
	members := make(map[*Constraint]int)
	binding := make(map[*Constraint]bool)
	onlyQuiet := true
	remove := func(v *Variable) {
		settled := s.cut == noCut
		s.RemoveVariable(v)
		if settled && s.cut == noCut {
			tally.quiet++
		} else {
			onlyQuiet = false
		}
	}
	solve := func(step int) {
		solvesBefore, warmBefore := s.Solves(), s.WarmSolves()
		if err := s.Solve(); err != nil {
			t.Fatalf("step %d: solve: %v", step, err)
		}
		requireMatchesScratch(t, s, step)
		privateWins := requireMatchesReference(t, s, step)
		if s.Solves() == solvesBefore {
			return // nothing changed since the last solve
		}
		if onlyQuiet && s.LastTouched() != 0 {
			t.Fatalf("step %d: only quiet departures since the last solve, yet %d variables re-filled", step, s.LastTouched())
		}
		onlyQuiet = true
		tally.privateWins += privateWins
		for _, c := range s.Constraints() {
			n, was := len(c.Variables()), members[c]
			switch {
			case was > 1 && n == 1:
				tally.sharedToPrivate++
			case binding[c] && !c.binding && n > 1 && n < was:
				tally.bindingToSlack++
			case was > 1 && !binding[c] && c.binding && n > was:
				tally.slackToBinding++
			}
			members[c], binding[c] = n, c.binding
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
			// The engine's shape: the route's shared links between the
			// flow's own NIC directions, which nothing else crosses yet.
			// The engine creates a NIC at its first use, so the down one
			// may be the older.
			if nics := op / warmOps % 3; nics > 0 {
				var down *Constraint
				if nics == 2 && b&1 != 0 {
					down = s.NewConstraint("", warmCaps[(a+c)%len(warmCaps)])
				}
				up := s.NewConstraint("", warmCaps[(b+c)%len(warmCaps)])
				if nics == 2 && down == nil {
					down = s.NewConstraint("", warmCaps[(a+c)%len(warmCaps)])
				}
				picked = append([]*Constraint{up}, picked...)
				if down != nil {
					picked = append(picked, down)
				}
			}
			s.AddVariable("", warmWeights[a/warmGroups%len(warmWeights)], warmBounds[(c>>2)%len(warmBounds)], picked...)
			onlyQuiet = false
		case warmRemove:
			if b == warmReshareB && c == warmReshareC {
				if cn := twoMemberBinding(cnsts, a); cn != nil {
					cut := s.cut
					remove(cn.Variables()[a%2])
					if s.cut != cut {
						tally.reshares++
					}
					s.AddVariable("", warmWeights[a%len(warmWeights)], warmBounds[a/8%len(warmBounds)], cn)
					onlyQuiet = false
					break
				}
			}
			if len(vars) > 0 {
				remove(vars[a%len(vars)])
			}
		case warmRemoveMany:
			for k := 2 + b%3; k > 0 && len(s.Variables()) > 0; k-- {
				vs := s.Variables()
				remove(vs[(a+k*c)%len(vs)])
			}
		case warmSetBound:
			if len(vars) > 0 {
				s.SetBound(vars[a%len(vars)], warmBounds[b%len(warmBounds)])
				onlyQuiet = false
			}
		case warmSolve:
			solve(i)
		}
	}
	solve(n)
	return tally
}

// twoMemberBinding returns the first constraint from position a on that
// is binding with two variables, or nil.
func twoMemberBinding(cnsts []*Constraint, a int) *Constraint {
	for k := range cnsts {
		if c := cnsts[(a+k)%len(cnsts)]; c.binding && c.live() == 2 {
			return c
		}
	}
	return nil
}

// randomWarmScript draws a removal-heavy script: a build-up of flows, then
// mostly departures between solves, with the occasional arrival and
// rebound. With nics, each arriving flow also crosses zero to two fresh
// constraints of its own, as an engine flow crosses its hosts' NICs. One
// script in three re-shares (see warmReshareB) one to three times, each
// right before a solve.
func randomWarmScript(g *stats.RNG, nics bool) []byte {
	record := func(op int) []byte {
		if op == warmAdd && nics {
			op += warmOps * g.Intn(3)
		}
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
	if g.Intn(3) == 0 {
		for k := 1 + g.Intn(3); k > 0; k-- {
			// Records are 4 bytes; the first sizes the system.
			at := 4 * (1 + g.Intn(len(script)/4-1))
			pair := append(record(warmRemove)[:2:2], warmReshareB, warmReshareC)
			pair = append(pair, record(warmSolve)...)
			script = append(script[:at], append(pair, script[at:]...)...)
		}
	}
	return script
}

// TestWarmResolveBitIdentical is the contract of the prefix-preserving
// re-solve: across scripts mixing single and multiple removals, binding
// bounds, λ ties, several components, arrivals and SetBound, every solve
// is bit-identical to a from-scratch clone and to the reference filler —
// and the resume path really runs, re-filling less than the disturbed
// components hold. A second batch gives flows NICs of their own, so
// private levels win rounds, shared constraints turn private, and
// departures are quiet. Shared constraints must turn slack on a
// departure and binding again on an arrival.
func TestWarmResolveBitIdentical(t *testing.T) {
	var total warmTally
	for _, nics := range []bool{false, true} {
		for seed := int64(1); seed <= 1200; seed++ {
			func() {
				defer func() {
					if t.Failed() {
						t.Logf("failing seed: %d (nics %v)", seed, nics)
					}
				}()
				total.add(runWarmScript(t, randomWarmScript(stats.NewRNG(seed), nics)))
			}()
		}
	}
	t.Logf("%d scripted solves: %d warm, %d re-filled less than their components", total.solves, total.warmSolves, total.partial)
	if total.warmSolves == 0 || total.partial == 0 {
		t.Errorf("resume path not exercised: %d warm solves, %d partial re-fills", total.warmSolves, total.partial)
	}
	t.Logf("%d private-level wins, %d shared constraints turned private, %d quiet departures", total.privateWins, total.sharedToPrivate, total.quiet)
	if total.privateWins == 0 || total.sharedToPrivate == 0 || total.quiet == 0 {
		t.Errorf("private constraints not exercised: %d private-level wins, %d shared→private, %d quiet departures",
			total.privateWins, total.sharedToPrivate, total.quiet)
	}
	t.Logf("%d binding→slack on a departure, %d slack→binding on an arrival", total.bindingToSlack, total.slackToBinding)
	if total.bindingToSlack == 0 || total.slackToBinding == 0 {
		t.Errorf("slack screen not exercised: %d binding→slack, %d slack→binding", total.bindingToSlack, total.slackToBinding)
	}
	t.Logf("%d binding constraints left private and shared again before a solve", total.reshares)
	if total.reshares < 150 {
		t.Errorf("re-shares not exercised: %d, want at least 150", total.reshares)
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

// quietShape builds a backbone crossed by three flows, each also crossing
// a NIC of its own: leaver's NIC (or, with bounded, its rate bound) fixes
// it first, then stayer's NIC. last is capped at lastNIC by its NIC — or
// by what is left of the backbone, if lastNIC is larger.
func quietShape(t *testing.T, bounded bool, lastNIC float64) (s *System, backbone *Constraint, leaver, stayer, last *Variable) {
	t.Helper()
	s = NewSystem()
	backbone = s.NewConstraint("backbone", 100)
	nic, bound := 10.0, 0.0
	if bounded {
		nic, bound = 1000, 10
	}
	leaver = s.AddVariable("leaver", 1, bound, s.NewConstraint("leaver-nic", nic), backbone)
	stayer = s.AddVariable("stayer", 1, 0, s.NewConstraint("stayer-nic", 30), backbone)
	last = s.AddVariable("last", 1, 0, backbone, s.NewConstraint("last-nic", lastNIC))
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	requireMatchesScratch(t, s, 0)
	requireMatchesReference(t, s, 0)
	return s, backbone, leaver, stayer, last
}

// A flow fixed by its own NIC (or bound) leaves while the backbone it
// shared never saturated from its round on: nothing it held was holding
// anyone back, so the next Solve re-fills nothing, and rates and usages
// are still those of both oracles.
func TestQuietDepartureRefillsNothing(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		s, backbone, leaver, stayer, last := quietShape(t, bounded, 40)
		if got := backbone.Usage(); got != 80 {
			t.Fatalf("bounded=%v: backbone usage %v before the departure, want 80 (unsaturated)", bounded, got)
		}
		s.RemoveVariable(leaver)
		solves := s.Solves()
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		if s.Solves() != solves+1 {
			t.Errorf("bounded=%v: the solve after a quiet departure was not counted", bounded)
		}
		if s.LastTouched() != 0 || len(s.Touched()) != 0 {
			t.Errorf("bounded=%v: %d variables re-filled (Touched() holds %d), want 0", bounded, s.LastTouched(), len(s.Touched()))
		}
		requireMatchesScratch(t, s, 1)
		requireMatchesReference(t, s, 1)
		if stayer.Rate() != 30 || last.Rate() != 40 || backbone.Usage() != 70 {
			t.Errorf("bounded=%v: stayer %v, last %v, backbone usage %v; want 30, 40, 70", bounded, stayer.Rate(), last.Rate(), backbone.Usage())
		}
		// Departures stay quiet back to back, and the log they leave
		// still resumes a later, ordinary re-solve correctly.
		s.RemoveVariable(stayer)
		s.AddVariable("late", 2, 0, backbone)
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		requireMatchesScratch(t, s, 2)
		requireMatchesReference(t, s, 2)
	}
}

// The counter-case: the backbone did bind after the departed flow's round
// (it fixed last), so the departure frees capacity last was waiting for,
// and the flows fixed from the departed one's round on are re-filled.
func TestLoudDepartureRefillsWhatItFreed(t *testing.T) {
	for _, bounded := range []bool{false, true} {
		s, backbone, leaver, stayer, last := quietShape(t, bounded, 1000)
		if got := last.Rate(); got != 60 {
			t.Fatalf("bounded=%v: last %v before the departure, want 60 (the backbone's remainder)", bounded, got)
		}
		s.RemoveVariable(leaver)
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		requireMatchesScratch(t, s, 1)
		requireMatchesReference(t, s, 1)
		if got := s.Touched(); len(got) != 2 || got[0] != stayer || got[1] != last {
			t.Errorf("bounded=%v: Touched() holds %d variables, want stayer and last", bounded, len(got))
		}
		if stayer.Rate() != 30 || last.Rate() != 70 || backbone.Usage() != 100 {
			t.Errorf("bounded=%v: stayer %v, last %v, backbone usage %v; want 30, 70, 100", bounded, stayer.Rate(), last.Rate(), backbone.Usage())
		}
	}
}

// Equal levels are broken as a scan over every constraint in serial order
// breaks them, whichever constraint of a variable was attached first. Here
// a variable's two NICs and a shared link sit at the same level 1/3; u's
// rate tells which won: a NIC older than the link (u gets what is left of
// 4/3 after v's 1: 0x3fd5555555555554), or the link (u gets 1/3 itself:
// 0x3fd5555555555555).
func TestPrivateLevelTiesBreakInSerialOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		olderNIC bool // one NIC is created before the link
		swap     bool // attach the NICs in the other order
		want     uint64
	}{
		{"older NIC attached last", true, false, 0x3fd5555555555554},
		{"older NIC attached first", true, true, 0x3fd5555555555554},
		{"both NICs newer", false, false, 0x3fd5555555555555},
	} {
		s := NewSystem()
		var nics [2]*Constraint
		if tc.olderNIC {
			nics[0] = s.NewConstraint("nic0", 1)
		}
		link := s.NewConstraint("link", 4.0/3)
		if !tc.olderNIC {
			nics[0] = s.NewConstraint("nic0", 1)
		}
		nics[1] = s.NewConstraint("nic1", 1)
		if tc.swap {
			nics[0], nics[1] = nics[1], nics[0]
		}
		s.AddVariable("v", 3, 0, nics[1], link, nics[0])
		u := s.AddVariable("u", 1, 0, link)
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		requireMatchesScratch(t, s, 0)
		requireMatchesReference(t, s, 0)
		if got := math.Float64bits(u.Rate()); got != tc.want {
			t.Errorf("%s: u = %x, want %x", tc.name, got, tc.want)
		}
	}
}
