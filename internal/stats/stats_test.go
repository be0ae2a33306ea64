package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: sum sq dev = 32, /7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(want), 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, math.Sqrt(want))
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	// Interpolated case.
	if got := Quantile([]float64{1, 2}, 0.75); !almostEqual(got, 1.75, 1e-12) {
		t.Errorf("q75 of {1,2} = %v, want 1.75", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestBoxSummary(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := Box(xs)
	if b.N != 10 {
		t.Errorf("N = %d", b.N)
	}
	if b.Median != 5.5 {
		t.Errorf("Median = %v, want 5.5", b.Median)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskHi != 9 {
		t.Errorf("WhiskHi = %v, want 9", b.WhiskHi)
	}
	if b.WhiskLo != 1 {
		t.Errorf("WhiskLo = %v, want 1", b.WhiskLo)
	}
}

func TestBoxAllEqual(t *testing.T) {
	b := Box([]float64{2, 2, 2})
	if b.Median != 2 || b.Q1 != 2 || b.Q3 != 2 || b.WhiskLo != 2 || b.WhiskHi != 2 {
		t.Errorf("degenerate box wrong: %+v", b)
	}
	if len(b.Outliers) != 0 {
		t.Errorf("unexpected outliers: %v", b.Outliers)
	}
}

func TestGeomSpaceMatchesPaperTicks(t *testing.T) {
	got := GeomSpace(1e5, 1e10, 10)
	want := []float64{1.00e5, 3.59e5, 1.29e6, 4.64e6, 1.67e7, 5.99e7, 2.15e8, 7.74e8, 2.78e9, 1.00e10}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		// Paper labels are rounded to 3 significant digits.
		if math.Abs(got[i]-want[i])/want[i] > 0.005 {
			t.Errorf("tick %d = %.3e, want %.3e", i, got[i], want[i])
		}
	}
}

func TestGeomSpaceEndpoints(t *testing.T) {
	got := GeomSpace(2, 32, 5)
	if got[0] != 2 || got[len(got)-1] != 32 {
		t.Errorf("endpoints wrong: %v", got)
	}
}

func TestLog2Error(t *testing.T) {
	if got := Log2Error(8, 2); got != 2 {
		t.Errorf("Log2Error(8,2) = %v, want 2", got)
	}
	if got := Log2Error(1, 4); got != -2 {
		t.Errorf("Log2Error(1,4) = %v, want -2", got)
	}
	if got := Log2Error(3, 3); got != 0 {
		t.Errorf("Log2Error equal = %v, want 0", got)
	}
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.6, 0.9}
	if got := FractionBelow(xs, 0.575); got != 0.5 {
		t.Errorf("FractionBelow = %v, want 0.5", got)
	}
	if got := FractionBelow(nil, 1); got != 0 {
		t.Errorf("FractionBelow(nil) = %v", got)
	}
}

// Property: the median is always between min and max, and quantiles are
// monotone in q.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q25 := Quantile(xs, 0.25)
		q50 := Quantile(xs, 0.5)
		q75 := Quantile(xs, 0.75)
		lo, hi := slices.Min(xs), slices.Max(xs)
		return lo <= q25 && q25 <= q50 && q50 <= q75 && q75 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Box never loses samples — outliers plus in-fence points
// account for all inputs.
func TestBoxConservesSamples(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b := Box(xs)
		inFence := 0
		for _, x := range xs {
			if x >= b.WhiskLo && x <= b.WhiskHi {
				inFence++
			}
		}
		return inFence+len(b.Outliers) == len(xs) && b.N == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GeomSpace is strictly increasing with a constant ratio.
func TestGeomSpaceMonotone(t *testing.T) {
	xs := GeomSpace(1, 1e6, 13)
	ratio := xs[1] / xs[0]
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("not increasing at %d: %v", i, xs)
		}
		r := xs[i] / xs[i-1]
		if math.Abs(r-ratio)/ratio > 1e-9 {
			t.Fatalf("ratio drift at %d: %v vs %v", i, r, ratio)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGSampleDistinct(t *testing.T) {
	g := NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		s := g.Sample(20, 10)
		sort.Ints(s)
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				t.Fatalf("duplicate in sample: %v", s)
			}
		}
		for _, v := range s {
			if v < 0 || v >= 20 {
				t.Fatalf("out of range: %v", s)
			}
		}
	}
}

func TestRNGSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 5) did not panic")
		}
	}()
	NewRNG(1).Sample(3, 5)
}

func TestRNGJitter(t *testing.T) {
	g := NewRNG(7)
	if got := g.Jitter(3.5, 0); got != 3.5 {
		t.Errorf("Jitter sigma=0 = %v", got)
	}
	// With small sigma, jitter stays close to base with overwhelming
	// probability; sanity-check positivity and rough scale.
	for i := 0; i < 1000; i++ {
		v := g.Jitter(1.0, 0.05)
		if v <= 0 || v < 0.5 || v > 2.0 {
			t.Fatalf("implausible jitter %v", v)
		}
	}
}

func TestAbs(t *testing.T) {
	got := Abs([]float64{-1, 2, -3})
	want := []float64{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Abs[%d] = %v", i, got[i])
		}
	}
}
