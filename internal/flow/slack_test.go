package flow

import (
	"fmt"
	"math"
	"testing"

	"pilgrim/internal/stats"
)

// The slack screen leaves out of every solve a shared constraint whose
// capacity exceeds slackMargin times the sum of its variables' ceilings.
// These tests put capacities on the edge of that test and check the
// solver bit for bit against the reference filler, which screens nothing.

// edgeCapacities returns the capacities around the edge for a ceiling sum
// sum: the margin's edge and one ulp either side of it, the sum itself
// and one ulp either side, and a few ulps below the sum, where the
// constraint binds by a hair once every variable reaches its ceiling.
func edgeCapacities(sum float64) []float64 {
	edge := slackMargin * sum
	return []float64{
		math.Nextafter(edge, math.Inf(1)), edge, math.Nextafter(edge, 0),
		math.Nextafter(sum, math.Inf(1)), sum, math.Nextafter(sum, 0),
		float64(sum * (1 - 1.0/(1<<40))),
	}
}

// TestSlackEdgeMatchesReference builds random systems around one edge
// constraint: flows limited by a bound or a NIC of their own, flows that
// also cross a second shared link, and background-style unbounded flows
// whose ceiling is a link's capacity. The edge constraint's capacity is
// set on the edge of the screen for the sum of its flows' ceilings. Every
// solve, after departures, arrivals and rebounds, must match the
// reference filler and the from-scratch clone bit for bit, and the first
// must classify the edge constraint by the strict test.
func TestSlackEdgeMatchesReference(t *testing.T) {
	slack, binding := 0, 0 // first solves that found the edge so
	var where string
	defer func() {
		if t.Failed() {
			t.Log("failing case:", where)
		}
	}()
	for seed := int64(1); seed <= 150; seed++ {
		g := stats.NewRNG(seed)
		// The flows of the edge constraint: weight, bound, NIC capacity
		// (0: none) and whether they cross the second link.
		type spec struct {
			weight, bound, nic float64
			second             bool
		}
		const second = 40.0
		specs := make([]spec, 2+g.Intn(5))
		sum := 0.0
		for i := range specs {
			sp := spec{weight: warmWeights[g.Intn(len(warmWeights))]}
			switch g.Intn(4) {
			case 0:
				sp.bound = warmBounds[3+g.Intn(5)]
			case 1:
				sp.nic = warmCaps[g.Intn(len(warmCaps))]
			case 2: // background-style: unbounded, limited by the second link
				sp.second = true
			default:
				sp.bound = warmBounds[3+g.Intn(5)]
				sp.nic = warmCaps[g.Intn(len(warmCaps))]
				sp.second = g.Intn(2) == 0
			}
			ceil := math.Inf(1)
			if sp.bound > 0 {
				ceil = sp.bound
			}
			if sp.nic > 0 {
				ceil = min(ceil, sp.nic)
			}
			if sp.second {
				ceil = min(ceil, second)
			}
			specs[i] = sp
			sum += ceil
		}
		for _, capacity := range edgeCapacities(sum) {
			where = fmt.Sprintf("seed %d, capacity %v for a ceiling sum of %v", seed, capacity, sum)
			s := NewSystem()
			edge := s.NewConstraint("edge", capacity)
			link := s.NewConstraint("second", second)
			var onEdge []*Variable
			for _, sp := range specs {
				cs := []*Constraint{edge}
				if sp.nic > 0 {
					cs = append(cs, s.NewConstraint("", sp.nic))
				}
				if sp.second {
					cs = append(cs, link)
				}
				onEdge = append(onEdge, s.AddVariable("", sp.weight, sp.bound, cs...))
			}
			// Flows on the second link only, so it binds now and then.
			for i := g.Intn(3); i > 0; i-- {
				s.AddVariable("", warmWeights[g.Intn(len(warmWeights))], 0, link)
			}
			step := 0
			check := func() {
				t.Helper()
				if err := s.Solve(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				requireMatchesScratch(t, s, step)
				requireMatchesReference(t, s, step)
				step++
			}
			check()
			if want := !(capacity > slackMargin*sum); edge.binding != want {
				t.Fatalf("binding %v, want %v", edge.binding, want)
			}
			if edge.binding {
				binding++
			} else {
				slack++
			}

			// A departure can leave the edge slack; an arrival or a raised
			// bound can make it bind again.
			s.RemoveVariable(onEdge[g.Intn(len(onEdge))])
			check()
			s.AddVariable("", warmWeights[g.Intn(len(warmWeights))], warmBounds[3+g.Intn(5)], edge)
			check()
			vs := edge.Variables()
			s.SetBound(vs[g.Intn(len(vs))], warmBounds[g.Intn(len(warmBounds))])
			check()
			s.AddVariable("", 1, 0, edge) // unbounded: the edge alone caps it
			check()
		}
	}
	if slack == 0 || binding == 0 {
		t.Errorf("edge constraint found slack %d times, binding %d times: want both", slack, binding)
	}
}

// TestSlackLinkSplitsComponents pins what the screen saves: two groups of
// flows, each on a link of its own, share one more link that their
// ceilings cannot fill. A departure in one group re-fills only that
// group; the other group is not touched, and keeps its rates bit for bit.
func TestSlackLinkSplitsComponents(t *testing.T) {
	s := NewSystem()
	// Each flow's ceiling is its group link's capacity, 10: the common
	// link's 100 exceeds the four ceilings' sum, 40.
	common := s.NewConstraint("common", 100)
	linkA := s.NewConstraint("a", 10)
	linkB := s.NewConstraint("b", 10)
	// Link a saturates first (level 10/4), then link b (10/3): group b is
	// fixed after a1, so only the screen keeps a1's departure from it.
	a1 := s.AddVariable("a1", 1, 0, linkA, common)
	a2 := s.AddVariable("a2", 3, 0, linkA, common)
	b1 := s.AddVariable("b1", 1, 0, linkB, common)
	b2 := s.AddVariable("b2", 2, 0, linkB, common)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	requireMatchesReference(t, s, 0)
	if common.binding || !linkA.binding || !linkB.binding {
		t.Fatalf("binding: common %v, a %v, b %v; want false, true, true", common.binding, linkA.binding, linkB.binding)
	}
	if a1.round >= b1.round {
		t.Fatalf("a1 fixed in round %d, b1 in round %d: want a1 first", a1.round, b1.round)
	}
	b1Bits, b2Bits := math.Float64bits(b1.Rate()), math.Float64bits(b2.Rate())

	s.RemoveVariable(a1)
	if err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	requireMatchesScratch(t, s, 1)
	requireMatchesReference(t, s, 1)
	if got := s.Touched(); s.LastTouched() != 1 || len(got) != 1 || got[0] != a2 {
		t.Errorf("after a1 left: LastTouched %d, Touched() %d variables; want a2 alone", s.LastTouched(), len(got))
	}
	if math.Float64bits(b1.Rate()) != b1Bits || math.Float64bits(b2.Rate()) != b2Bits {
		t.Errorf("group b moved: b1 %v, b2 %v", b1.Rate(), b2.Rate())
	}
	if a2.Rate() != 10 {
		t.Errorf("a2 = %v, want its link's 10", a2.Rate())
	}
}
