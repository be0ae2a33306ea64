package flow

import (
	"math"
	"testing"
	"testing/quick"

	"pilgrim/internal/stats"
)

func solve(t *testing.T, s *System) {
	t.Helper()
	if err := s.Solve(); err != nil {
		t.Fatalf("Solve: %v", err)
	}
}

func TestSingleLinkEqualWeights(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("link", 100)
	var vs []*Variable
	for i := 0; i < 4; i++ {
		v := s.NewVariable("f", 1, 0)
		s.MustAttach(v, c)
		vs = append(vs, v)
	}
	solve(t, s)
	for _, v := range vs {
		if math.Abs(v.Rate()-25) > 1e-9 {
			t.Errorf("rate = %v, want 25", v.Rate())
		}
	}
	if !c.Saturated() {
		t.Error("link should be saturated")
	}
}

func TestSingleLinkWeightedShares(t *testing.T) {
	// RTT-aware sharing: weights 1/RTT. RTTs 1ms and 10ms on a 110 MB/s
	// link must yield a 10:1 split.
	s := NewSystem()
	c := s.NewConstraint("link", 110)
	fast := s.NewVariable("fast", 1/0.001, 0)
	slow := s.NewVariable("slow", 1/0.010, 0)
	s.MustAttach(fast, c)
	s.MustAttach(slow, c)
	solve(t, s)
	if math.Abs(fast.Rate()-100) > 1e-6 {
		t.Errorf("fast = %v, want 100", fast.Rate())
	}
	if math.Abs(slow.Rate()-10) > 1e-6 {
		t.Errorf("slow = %v, want 10", slow.Rate())
	}
}

func TestBoundBeatsShare(t *testing.T) {
	// One flow window-bound at 10, the other takes the rest.
	s := NewSystem()
	c := s.NewConstraint("link", 100)
	bounded := s.NewVariable("b", 1, 10)
	free := s.NewVariable("f", 1, 0)
	s.MustAttach(bounded, c)
	s.MustAttach(free, c)
	solve(t, s)
	if math.Abs(bounded.Rate()-10) > 1e-9 {
		t.Errorf("bounded = %v, want 10", bounded.Rate())
	}
	if math.Abs(free.Rate()-90) > 1e-9 {
		t.Errorf("free = %v, want 90", free.Rate())
	}
}

func TestMultiHopBottleneck(t *testing.T) {
	// f1 crosses A(100)+B(10); f2 crosses A only. f1 is limited to 10 by
	// B, f2 gets the rest of A.
	s := NewSystem()
	a := s.NewConstraint("A", 100)
	b := s.NewConstraint("B", 10)
	f1 := s.NewVariable("f1", 1, 0)
	f2 := s.NewVariable("f2", 1, 0)
	s.MustAttach(f1, a)
	s.MustAttach(f1, b)
	s.MustAttach(f2, a)
	solve(t, s)
	if math.Abs(f1.Rate()-10) > 1e-9 {
		t.Errorf("f1 = %v, want 10", f1.Rate())
	}
	if math.Abs(f2.Rate()-90) > 1e-9 {
		t.Errorf("f2 = %v, want 90", f2.Rate())
	}
}

func TestClassicMaxMinTriangle(t *testing.T) {
	// Canonical example: links L1(1) and L2(1). f0 crosses both, f1 only
	// L1, f2 only L2. Max-min: f0=0.5, f1=0.5, f2=0.5.
	s := NewSystem()
	l1 := s.NewConstraint("L1", 1)
	l2 := s.NewConstraint("L2", 1)
	f0 := s.NewVariable("f0", 1, 0)
	f1 := s.NewVariable("f1", 1, 0)
	f2 := s.NewVariable("f2", 1, 0)
	s.MustAttach(f0, l1)
	s.MustAttach(f0, l2)
	s.MustAttach(f1, l1)
	s.MustAttach(f2, l2)
	solve(t, s)
	for _, v := range []*Variable{f0, f1, f2} {
		if math.Abs(v.Rate()-0.5) > 1e-9 {
			t.Errorf("%s = %v, want 0.5", v.ID(), v.Rate())
		}
	}
}

func TestUnboundedVariableError(t *testing.T) {
	s := NewSystem()
	s.NewVariable("lonely", 1, 0)
	if err := s.Solve(); err == nil {
		t.Fatal("expected ErrUnboundedVariable")
	}
}

func TestVariableWithBoundOnly(t *testing.T) {
	s := NewSystem()
	v := s.NewVariable("v", 1, 42)
	solve(t, s)
	if v.Rate() != 42 {
		t.Errorf("rate = %v, want 42", v.Rate())
	}
}

func TestZeroCapacityConstraint(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("dead", 0)
	v := s.NewVariable("v", 1, 0)
	s.MustAttach(v, c)
	solve(t, s)
	if v.Rate() != 0 {
		t.Errorf("rate = %v, want 0", v.Rate())
	}
}

func TestDoubleAttachRejected(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("c", 1)
	v := s.NewVariable("v", 1, 0)
	if err := s.Attach(v, c); err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(v, c); err == nil {
		t.Fatal("second attach should fail")
	}
}

func TestResolveAfterMutation(t *testing.T) {
	s := NewSystem()
	c := s.NewConstraint("link", 100)
	v1 := s.NewVariable("v1", 1, 0)
	s.MustAttach(v1, c)
	solve(t, s)
	if v1.Rate() != 100 {
		t.Fatalf("solo rate = %v", v1.Rate())
	}
	v2 := s.NewVariable("v2", 1, 0)
	s.MustAttach(v2, c)
	if s.Solved() {
		t.Error("system should be marked unsolved after mutation")
	}
	solve(t, s)
	if math.Abs(v1.Rate()-50) > 1e-9 || math.Abs(v2.Rate()-50) > 1e-9 {
		t.Errorf("rates = %v, %v, want 50, 50", v1.Rate(), v2.Rate())
	}
}

func TestPaperNICSharingExample(t *testing.T) {
	// The sharing phase of the paper's worked example (§IV-C2): two flows
	// leave capricorne-36's 1 Gb/s NIC; the intra-site flow has RTT
	// 4.16e-3 s, the cross-site one 5.096e-2 s (latencies ×10.4). With
	// capacity 0.92*125e6 B/s the intra flow must get ~106.3 MB/s.
	s := NewSystem()
	nic := s.NewConstraint("capricorne-36.nic", 0.92*125e6)
	intra := s.NewVariable("intra", 1/4.16e-3, 0)
	cross := s.NewVariable("cross", 1/5.096e-2, 0)
	s.MustAttach(intra, nic)
	s.MustAttach(cross, nic)
	solve(t, s)
	if got := intra.Rate(); math.Abs(got-106.3e6)/106.3e6 > 0.01 {
		t.Errorf("intra rate = %.4g, want ~106.3e6", got)
	}
	if got := cross.Rate(); math.Abs(got-8.68e6)/8.68e6 > 0.02 {
		t.Errorf("cross rate = %.4g, want ~8.68e6", got)
	}
}

// buildRandomSystem constructs a random feasible system for property tests.
func buildRandomSystem(seed int64, nC, nV int) (*System, bool) {
	g := stats.NewRNG(seed)
	s := NewSystem()
	cs := make([]*Constraint, nC)
	for i := range cs {
		cs[i] = s.NewConstraint("c", 1+float64(g.Float64()*99))
	}
	for i := 0; i < nV; i++ {
		bound := 0.0
		if g.Float64() < 0.3 {
			bound = 0.5 + float64(g.Float64()*20)
		}
		v := s.NewVariable("v", 0.1+float64(g.Float64()*9.9), bound)
		k := 1 + g.Intn(3)
		if k > nC {
			k = nC
		}
		for _, ci := range g.Sample(nC, k) {
			s.MustAttach(v, cs[ci])
		}
	}
	return s, true
}

// Property: allocations never violate capacities.
func TestSolveFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := buildRandomSystem(seed, 5, 20)
		if err := s.Solve(); err != nil {
			return false
		}
		for _, c := range s.Constraints() {
			total := 0.0
			for _, v := range c.Variables() {
				total += v.Rate()
			}
			if total > float64(c.Capacity()*(1+1e-9))+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: every variable is blocked — at its bound or crossing a
// saturated constraint (max-min optimality certificate).
func TestSolveMaxMinBlocking(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := buildRandomSystem(seed, 4, 15)
		if err := s.Solve(); err != nil {
			return false
		}
		for _, v := range s.Variables() {
			atBound := !math.IsInf(v.Bound(), 1) && v.Rate() >= v.Bound()*(1-1e-9)
			blocked := atBound
			for _, c := range v.Constraints() {
				if c.Saturated() {
					blocked = true
					break
				}
			}
			if !blocked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: rates are non-negative and deterministic across repeat solves.
func TestSolveDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := buildRandomSystem(seed, 3, 12)
		if err := s.Solve(); err != nil {
			return false
		}
		first := make([]float64, len(s.Variables()))
		for i, v := range s.Variables() {
			if v.Rate() < 0 {
				return false
			}
			first[i] = v.Rate()
		}
		if err := s.Solve(); err != nil {
			return false
		}
		for i, v := range s.Variables() {
			if v.Rate() != first[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: adding a flow to a link never increases any existing flow's
// rate on simple single-link systems (monotonicity of contention).
func TestContentionMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		n := 1 + g.Intn(10)
		cap := 10 + float64(g.Float64()*90)

		rates := func(k int) []float64 {
			s := NewSystem()
			c := s.NewConstraint("l", cap)
			vs := make([]*Variable, k)
			for i := range vs {
				vs[i] = s.NewVariable("v", 1, 0)
				s.MustAttach(vs[i], c)
			}
			if err := s.Solve(); err != nil {
				return nil
			}
			out := make([]float64, k)
			for i, v := range vs {
				out[i] = v.Rate()
			}
			return out
		}
		a := rates(n)
		b := rates(n + 1)
		if a == nil || b == nil {
			return false
		}
		for i := range a {
			if b[i] > a[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := buildRandomSystem(42, 5, 20)
		if err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve30FlowsGridScale(b *testing.B) {
	// Roughly the size of a 30-concurrent-transfer prediction on
	// Grid'5000: ~30 flows × ~6 links each.
	for i := 0; i < b.N; i++ {
		s, _ := buildRandomSystem(7, 180, 30)
		if err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, _ := buildRandomSystem(3, 500, 1000)
		if err := s.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
