package flow

import (
	"math"
	"slices"
	"testing"
	"time"

	"pilgrim/internal/stats"
)

// TestLargeSystemBitIdentical grows a system far past the sizes the
// scripted tests reach: 5 000 flows, nine in ten on one shared backbone
// and the rest in small groups on side links of their own, each flow also
// on one or two NICs nobody else crosses and some with a rate bound. It
// then removes flows one at a time and in batches. Every solve must match
// the from-scratch clone and the reference filler bit for bit, and the
// solves must re-fill both lists long enough for sortOwn to merge runs
// and lists short enough for one insertion run.
func TestLargeSystemBitIdentical(t *testing.T) {
	g := stats.NewRNG(11)
	s, _ := largeSystem(g, 5000)

	long, short := 0, 0
	solve := func(step int) {
		t.Helper()
		if err := s.Solve(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		requireMatchesScratch(t, s, step)
		requireMatchesReference(t, s, step)
		switch n := s.LastTouched(); {
		case n > ownRun:
			long++
		case n > 1:
			short++
		}
	}
	solve(0)
	for step := 1; step <= 12; step++ {
		k := 1
		if step%4 == 0 {
			k = 300
		}
		for ; k > 0; k-- {
			vs := s.Variables()
			s.RemoveVariable(vs[g.Intn(len(vs))])
		}
		solve(step)
	}
	if long == 0 || short == 0 {
		t.Errorf("%d solves re-filled more than %d variables, %d between 2 and %d: want both kinds", long, ownRun, short, ownRun)
	}
}

// largeSystem builds the shape of TestLargeSystemBitIdentical with the
// given number of flows, and returns them in creation order.
func largeSystem(g *stats.RNG, flows int) (*System, []*Variable) {
	s := NewSystem()
	backbone := s.NewConstraint("backbone", 1500)
	var side *Constraint
	vars := make([]*Variable, flows)
	for i := range vars {
		cs := []*Constraint{s.NewConstraint("", warmCaps[g.Intn(len(warmCaps))])}
		if i%10 == 0 {
			if i%80 == 0 {
				side = s.NewConstraint("", warmCaps[g.Intn(len(warmCaps))])
			}
			cs = append(cs, side)
		} else {
			cs = append(cs, backbone)
		}
		if g.Intn(2) == 0 {
			cs = append(cs, s.NewConstraint("", warmCaps[g.Intn(len(warmCaps))]))
		}
		vars[i] = s.AddVariable("", warmWeights[g.Intn(len(warmWeights))], warmBounds[g.Intn(len(warmBounds))], cs...)
	}
	return s, vars
}

// TestDeparturesAreNotQuadratic removes every flow of the 5 000-flow
// system of TestLargeSystemBitIdentical, oldest first — the order that
// shifts the most when a departure closes its gap in the system's list
// and in the backbone's — and times it against removing eight systems of
// an eighth the size each, the same number of flows. Departures that cost
// amortized O(1) take about as long either way; O(n) departures take
// eight times as long on the large system. The two sides alternate for
// five rounds and each keeps its fastest, so a burst of load on a shared
// machine must hit every round of one side to move the comparison. The
// bound is loose enough for a loaded machine or a race-instrumented build.
func TestDeparturesAreNotQuadratic(t *testing.T) {
	const flows, parts = 5000, 8
	drain := func(systems int) time.Duration {
		g := stats.NewRNG(11)
		var elapsed time.Duration
		for k := 0; k < systems; k++ {
			s, vars := largeSystem(g, flows/systems)
			if err := s.Solve(); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			for _, v := range vars {
				s.RemoveVariable(v)
			}
			elapsed += time.Since(start)
			if n := len(s.Variables()); n != 0 {
				t.Fatalf("%d variables left after removing all", n)
			}
		}
		return elapsed
	}
	small, large := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for round := 0; round < 5; round++ {
		small = min(small, drain(parts))
		large = min(large, drain(1))
	}
	if large > 3*small+5*time.Millisecond {
		t.Errorf("removing %d flows from one system took %v, from %d systems of %d flows %v", flows, large, parts, flows/parts, small)
	}
	t.Logf("one system %v, %d systems %v", large, parts, small)
}

// TestSortOwnIsNotQuadratic orders 131 072 entries given in descending
// order, the worst case of an insertion sort, and times it against the
// library sort of the same entries on the same machine: the merge keeps
// sortOwn within a small factor of it, where insertion alone would be
// thousands of times slower. The bound is loose enough for a loaded
// machine or a race-instrumented build, and tight enough to fail a
// quadratic sort by orders of magnitude.
func TestSortOwnIsNotQuadratic(t *testing.T) {
	const n = 1 << 17
	own := make([]ownEntry, n)
	for i := range own {
		own[i] = ownEntry{lam: float64(n - i/2), by: uint64(i % 3), index: n - i}
	}
	want := slices.Clone(own)
	start := time.Now()
	slices.SortFunc(want, func(a, b ownEntry) int {
		switch {
		case a.before(&b):
			return -1
		case b.before(&a):
			return 1
		}
		return 0
	})
	library := time.Since(start)
	start = time.Now()
	sortOwn(own, nil)
	if elapsed := time.Since(start); elapsed > 25*library+100*time.Millisecond {
		t.Errorf("sorting %d entries took %v, the library sort %v", n, elapsed, library)
	}
	if !slices.Equal(own, want) {
		t.Error("sortOwn's order differs from the library sort's")
	}
}

// TestSplitFollowsMembership pins when a variable's split is redone: a
// constraint left with one variable is that variable's private level at
// the next solve that re-fills it, and one that gains a second variable
// is shared again. (Treating a private constraint as shared gives the same
// bits, so the oracles cannot tell a stale "shared" apart; only the cost
// differs.)
func TestSplitFollowsMembership(t *testing.T) {
	s := NewSystem()
	link := s.NewConstraint("link", 10)
	nic := s.NewConstraint("nic", 8)
	a := s.AddVariable("a", 1, 0, link, nic)
	b := s.AddVariable("b", 1, 0, link)
	solveAndCheck := func(step int, wantShared []*Constraint, wantLam float64) {
		t.Helper()
		if err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		requireMatchesScratch(t, s, step)
		requireMatchesReference(t, s, step)
		if !a.split || !slices.Equal(a.shared, wantShared) || a.lam != wantLam {
			t.Errorf("step %d: split %v, shared %v, own level %v; want true, %v, %v", step, a.split, a.shared, a.lam, wantShared, wantLam)
		}
	}
	solveAndCheck(0, []*Constraint{link}, 8) // link fixes a and b at 5
	s.RemoveVariable(b)                      // link turns private, and a is re-filled
	solveAndCheck(1, nil, 8)
	s.AddVariable("c", 1, 0, nic) // nic turns shared
	solveAndCheck(2, []*Constraint{nic}, 10)
}
