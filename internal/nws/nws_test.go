package nws

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pilgrim/internal/stats"
)

func TestLastValue(t *testing.T) {
	f := NewLast()
	if _, ok := f.Predict(); ok {
		t.Error("prediction before data")
	}
	f.Update(3)
	f.Update(7)
	if v, ok := f.Predict(); !ok || v != 7 {
		t.Errorf("Predict = %v, %v", v, ok)
	}
}

func TestRunningMean(t *testing.T) {
	f := NewRunningMean()
	for _, v := range []float64{2, 4, 6} {
		f.Update(v)
	}
	if v, _ := f.Predict(); v != 4 {
		t.Errorf("Predict = %v, want 4", v)
	}
}

func TestSlidingMean(t *testing.T) {
	f := NewSlidingMean(3)
	for _, v := range []float64{100, 1, 2, 3} {
		f.Update(v)
	}
	if v, _ := f.Predict(); v != 2 {
		t.Errorf("Predict = %v, want 2 (window dropped 100)", v)
	}
}

func TestSlidingMedianOddEven(t *testing.T) {
	f := NewSlidingMedian(4)
	f.Update(1)
	f.Update(9)
	f.Update(5)
	if v, _ := f.Predict(); v != 5 {
		t.Errorf("odd median = %v, want 5", v)
	}
	f.Update(7)
	if v, _ := f.Predict(); v != 6 {
		t.Errorf("even median = %v, want 6", v)
	}
}

// TestSlidingMedianMatchesSortOracle holds the sorted-window median to the
// copy-and-sort it replaced — the raw ring copied in buffer order, then
// sort.Float64s — bit for bit, after every observation of random streams
// drawn from small pools (so windows repeat values), with both signed zeros
// and NaNs of three payloads, across export/import round trips.
func TestSlidingMedianMatchesSortOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	pools := map[string][]float64{
		"repeats":      {1, 2, 2, 2.5, 3, 3, 7, 1e8},
		"signed zeros": {0, negZero, 0, negZero, 1, -1, 2.5},
		"nans":         {math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000000), 0, negZero, 1, 4},
		"wide":         {-1e300, -3, 5e-324, 1.5, 9, 1e21, math.Inf(1), math.Inf(-1)},
	}
	for _, k := range []int{1, 2, 4, 5, 21} {
		for name, pool := range pools {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				f := NewSlidingMedian(k).(*slidingMedian)
				ring, head, full := make([]float64, k), 0, false
				for step := 0; step < 300; step++ {
					v := pool[rng.Intn(len(pool))]
					f.Update(v)
					ring[head] = v
					if head++; head == k {
						head, full = 0, true
					}
					want := append([]float64(nil), ring[:head]...)
					if full {
						want = append(want[:0], ring...)
					}
					sort.Float64s(want)
					got, ok := f.Predict()
					n := len(want)
					wantV := want[n/2]
					if n%2 == 0 {
						wantV = (want[n/2-1] + want[n/2]) / 2
					}
					// An even window averages its middle pair, and which NaN
					// payload a sum of two NaNs carries is the compiled
					// operand order's choice, not the algorithm's.
					nanSum := n%2 == 0 && math.IsNaN(wantV) && math.IsNaN(got)
					if !ok || (math.Float64bits(got) != math.Float64bits(wantV) && !nanSum) {
						t.Fatalf("k=%d %s seed %d step %d: median %v (%#x), copy-and-sort %v (%#x); window %v",
							k, name, seed, step, got, math.Float64bits(got), wantV, math.Float64bits(wantV), ring)
					}
					if step%37 == 36 {
						g := NewSlidingMedian(k).(*slidingMedian)
						if err := g.importState(f.exportState()); err != nil {
							t.Fatal(err)
						}
						f = g
					}
				}
			}
		}
	}
}

func TestExpSmoothing(t *testing.T) {
	f := NewExpSmoothing(0.5)
	f.Update(0)
	f.Update(10)
	if v, _ := f.Predict(); v != 5 {
		t.Errorf("Predict = %v, want 5", v)
	}
}

func TestConstructorsPanicOnBadArgs(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero window mean":   func() { NewSlidingMean(0) },
		"zero window median": func() { NewSlidingMedian(0) },
		"zero gain":          func() { NewExpSmoothing(0) },
		"gain above one":     func() { NewExpSmoothing(1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSelectorPrefersBestPredictor(t *testing.T) {
	// Constant series: every predictor converges; selector must predict
	// the constant.
	s := NewSelector()
	for i := 0; i < 50; i++ {
		s.Update(42)
	}
	if v, ok := s.Predict(); !ok || math.Abs(v-42) > 1e-9 {
		t.Errorf("constant prediction = %v, %v", v, ok)
	}

	// Alternating series 0,10,0,10...: LAST is the worst possible
	// predictor (always wrong by 10); means hover at 5. The selector
	// must not pick LAST.
	s2 := NewSelector()
	for i := 0; i < 100; i++ {
		s2.Update(float64((i % 2) * 10))
	}
	if s2.Best() == "LAST" {
		t.Error("selector chose LAST on an alternating series")
	}

	// Trending series: LAST beats long-window means.
	s3 := NewSelector()
	for i := 0; i < 100; i++ {
		s3.Update(float64(i))
	}
	best := s3.Best()
	if best == "RUN_AVG" || best == "MEDIAN(21)" {
		t.Errorf("selector chose %s on a strong trend", best)
	}
}

func TestSelectorEmpty(t *testing.T) {
	s := NewSelector()
	if _, ok := s.Predict(); ok {
		t.Error("prediction from empty selector")
	}
	if s.Best() != "" {
		t.Error("best name from empty selector")
	}
}

// Property: the selector's cumulative error is never worse than the worst
// single predictor and the prediction is always within the range of
// observed values for bounded series.
func TestSelectorPredictsWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		g := stats.NewRNG(seed)
		s := NewSelector()
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 60; i++ {
			v := 10 + float64(g.Float64()*90)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			s.Update(v)
		}
		p, ok := s.Predict()
		return ok && p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPathForecaster(t *testing.T) {
	pf := NewPathForecaster()
	if _, ok := pf.PredictTransfer(1e6); ok {
		t.Error("prediction before any probe")
	}
	// Stable path: 100 MB/s, 1 ms RTT.
	for i := 0; i < 30; i++ {
		pf.Observe(100e6, 1e-3)
	}
	d, ok := pf.PredictTransfer(1e9)
	if !ok {
		t.Fatal("no prediction")
	}
	want := 1e-3 + 1e9/100e6
	if math.Abs(d-want)/want > 0.01 {
		t.Errorf("duration = %v, want ~%v", d, want)
	}
}

// TestNWSContentionBlindness captures the structural weakness the paper
// exploits (§III-B): NWS extrapolates per-path history, so a batch of N
// concurrent transfers over a shared bottleneck is predicted as N solo
// transfers — a factor-N underestimate that the simulation-driven
// forecast does not suffer from.
func TestNWSContentionBlindness(t *testing.T) {
	pf := NewPathForecaster()
	for i := 0; i < 30; i++ {
		pf.Observe(117e6, 3e-4) // solo probes at line rate
	}
	soloPrediction, ok := pf.PredictTransfer(1e9)
	if !ok {
		t.Fatal("no prediction")
	}
	// Ten concurrent transfers on one gigabit NIC actually take ~10x a
	// solo transfer; NWS predicts all ten at the solo duration.
	actualShared := 1e9 / (117e6 / 10)
	if soloPrediction > actualShared/5 {
		t.Errorf("expected NWS to underestimate shared duration by ~10x: predicted %v, actual %v",
			soloPrediction, actualShared)
	}
}

func BenchmarkSelectorUpdate(b *testing.B) {
	s := NewSelector()
	g := stats.NewRNG(1)
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = g.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(vals[i%len(vals)])
	}
}
