package flow

import (
	"math"
	"testing"

	"pilgrim/internal/stats"
)

// applyScriptedOps applies n random mutations driven by g. Because g is
// deterministic and every choice depends only on the system's live lists
// (which evolve identically on two systems in the same logical state),
// replaying with an equal-seeded RNG applies the identical script.
func applyScriptedOps(t *testing.T, s *System, g *stats.RNG, n int) {
	t.Helper()
	for op := 0; op < n; op++ {
		r := g.Float64()
		switch {
		case r < 0.25 && len(s.Variables()) > 0:
			s.RemoveVariable(s.Variables()[g.Intn(len(s.Variables()))])
		case r < 0.40 && len(s.Variables()) > 0:
			s.SetBound(s.Variables()[g.Intn(len(s.Variables()))], 0.5+g.Float64()*30)
		case r < 0.55 && len(s.Constraints()) > 0:
			s.SetCapacity(s.Constraints()[g.Intn(len(s.Constraints()))], 10+g.Float64()*150)
		case r < 0.65:
			if err := s.Solve(); err != nil {
				t.Fatalf("mid-script solve: %v", err)
			}
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
			s.AddVariable("", 0.1+g.Float64()*9.9, bound, picked...)
		}
	}
}

func requireSameState(t *testing.T, a, b *System, ctx string) {
	t.Helper()
	if len(a.Variables()) != len(b.Variables()) || len(a.Constraints()) != len(b.Constraints()) {
		t.Fatalf("%s: shape mismatch: %d/%d vars, %d/%d cnsts", ctx,
			len(a.Variables()), len(b.Variables()), len(a.Constraints()), len(b.Constraints()))
	}
	for i, va := range a.Variables() {
		vb := b.Variables()[i]
		if math.Float64bits(va.Rate()) != math.Float64bits(vb.Rate()) {
			t.Fatalf("%s: var %d (%s): rate %v != %v", ctx, i, va.ID(), va.Rate(), vb.Rate())
		}
		if va.ID() != vb.ID() || math.Float64bits(va.Bound()) != math.Float64bits(vb.Bound()) || va.Weight() != vb.Weight() {
			t.Fatalf("%s: var %d identity mismatch", ctx, i)
		}
		if len(va.Constraints()) != len(vb.Constraints()) {
			t.Fatalf("%s: var %d attachment count mismatch", ctx, i)
		}
	}
	for i, ca := range a.Constraints() {
		cb := b.Constraints()[i]
		if math.Float64bits(ca.Usage()) != math.Float64bits(cb.Usage()) {
			t.Fatalf("%s: cnst %d (%s): usage %v != %v", ctx, i, ca.ID(), ca.Usage(), cb.Usage())
		}
		if ca.Capacity() != cb.Capacity() || len(ca.Variables()) != len(cb.Variables()) {
			t.Fatalf("%s: cnst %d identity mismatch", ctx, i)
		}
	}
}

// TestCheckpointRestoreContinuation forks a randomly evolved system at a
// random point and verifies that the original and the restored copy stay
// bit-identical under an identical continuation script — the property the
// differential evaluation path relies on.
func TestCheckpointRestoreContinuation(t *testing.T) {
	for seed := int64(1); seed <= 45; seed++ {
		g := stats.NewRNG(seed)
		s := NewSystem()
		for i, nc := 0, 3+g.Intn(6); i < nc; i++ {
			s.NewConstraint("", 50+g.Float64()*100)
		}
		applyScriptedOps(t, s, g, 5+g.Intn(25))
		if g.Float64() < 0.7 {
			if err := s.Solve(); err != nil {
				t.Fatalf("seed %d: pre-checkpoint solve: %v", seed, err)
			}
		}

		ck := s.Checkpoint()
		s2 := NewSystem()
		s2.Restore(ck)
		requireSameState(t, s, s2, "seed post-restore")

		// Same continuation on both; equal seeds make equal scripts.
		cont := seed*1009 + 7
		applyScriptedOps(t, s, stats.NewRNG(cont), 25)
		applyScriptedOps(t, s2, stats.NewRNG(cont), 25)
		if err := s.Solve(); err != nil {
			t.Fatalf("seed %d: original solve: %v", seed, err)
		}
		if err := s2.Solve(); err != nil {
			t.Fatalf("seed %d: restored solve: %v", seed, err)
		}
		requireSameState(t, s, s2, "seed post-continuation")
		if s.Solves() != s2.Solves() || s.LastTouched() != s2.LastTouched() {
			t.Fatalf("seed %d: solver stats diverged: %d/%d solves, %d/%d touched",
				seed, s.Solves(), s2.Solves(), s.LastTouched(), s2.LastTouched())
		}

		// A third system restored from the same checkpoint after the
		// original moved on proves checkpoint immutability.
		s3 := NewSystem()
		s3.Restore(ck)
		applyScriptedOps(t, s3, stats.NewRNG(cont), 25)
		if err := s3.Solve(); err != nil {
			t.Fatalf("seed %d: late-restore solve: %v", seed, err)
		}
		requireSameState(t, s, s3, "seed late-restore")
	}
}

// TestSetCapacityDirtiesOnlyChanges pins the SetCapacity contract: equal
// re-assertions leave the system solved, actual changes re-solve only the
// disturbed component.
func TestSetCapacityDirtiesOnlyChanges(t *testing.T) {
	s := NewSystem()
	c1 := s.NewConstraint("c1", 100)
	c2 := s.NewConstraint("c2", 100)
	s.AddVariable("a", 1, 0, c1)
	s.AddVariable("b", 1, 0, c2)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.SetCapacity(c1, 100) {
		t.Fatal("equal capacity reported as a change")
	}
	if !s.Solved() {
		t.Fatal("equal-capacity re-assert dirtied the system")
	}
	if !s.SetCapacity(c1, 50) {
		t.Fatal("changed capacity not reported")
	}
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if s.LastTouched() != 1 {
		t.Fatalf("capacity change on c1 touched %d variables, want 1", s.LastTouched())
	}
	if got := s.Variables()[0].Rate(); got != 50 {
		t.Fatalf("rate after capacity change = %v, want 50", got)
	}
	if got := s.Variables()[1].Rate(); got != 100 {
		t.Fatalf("untouched component rate = %v, want 100", got)
	}
}

// TestForkIndependence verifies a fork and its source evolve independently.
func TestForkIndependence(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("link", 100)
	s.AddVariable("a", 1, 0, c)
	s.AddVariable("b", 1, 0, c)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	fork, vars, cnsts := s.Fork()
	if len(vars) != 2 || len(cnsts) != 1 {
		t.Fatalf("fork shape: %d vars, %d cnsts", len(vars), len(cnsts))
	}
	fork.SetCapacity(cnsts[0], 10)
	if err := fork.Solve(); err != nil {
		t.Fatal(err)
	}
	if vars[0].Rate() != 5 || vars[1].Rate() != 5 {
		t.Fatalf("fork rates = %v, %v, want 5, 5", vars[0].Rate(), vars[1].Rate())
	}
	if s.Variables()[0].Rate() != 50 || c.Capacity() != 100 {
		t.Fatal("mutating the fork disturbed the source system")
	}
}

// TestForkResumesLikeSource pins that a checkpoint carries the record of
// the last fill: after the same removal, a fork re-fills exactly what its
// source does — same Touched(), same statistics — not its whole component.
func TestForkResumesLikeSource(t *testing.T) {
	s := NewSystem()
	slow := s.NewConstraint("slow", 10)
	trunk := s.NewConstraint("trunk", 100)
	s.AddVariable("early", 1, 0, slow, trunk) // fixed first, at the slow link
	s.AddVariable("leaver", 1, 0, trunk)
	s.AddVariable("stayer", 2, 0, trunk)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	fork, fvars, _ := s.Fork()
	s.RemoveVariable(s.Variables()[1])
	fork.RemoveVariable(fvars[1])
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if err := fork.Solve(); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, s, fork, "after the removal")
	if s.LastTouched() != 1 || s.WarmSolves() != 1 {
		t.Fatalf("source re-filled %d variables in %d warm solves, want 1 and 1", s.LastTouched(), s.WarmSolves())
	}
	if fork.LastTouched() != s.LastTouched() || fork.WarmSolves() != s.WarmSolves() ||
		fork.VariablesKept() != s.VariablesKept() || fork.Rounds() != s.Rounds() {
		t.Errorf("fork statistics diverged: touched %d/%d, warm %d/%d, kept %d/%d, rounds %d/%d",
			fork.LastTouched(), s.LastTouched(), fork.WarmSolves(), s.WarmSolves(),
			fork.VariablesKept(), s.VariablesKept(), fork.Rounds(), s.Rounds())
	}
}
