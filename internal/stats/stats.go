// Package stats provides the small statistical toolkit used throughout
// Pilgrim: descriptive statistics (median, quantiles, standard deviation),
// box-plot summaries in the style of the paper's figures, geometric
// parameter sweeps, and log2-error helpers.
//
// All functions are pure and operate on float64 slices. Inputs are never
// mutated: functions that need ordering work on private copies.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by reducers that require at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs. It returns 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when fewer than two samples are given.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	// Inlined where len(xs) is a constant, Mean's division becomes a
	// product: float64() rounds it, so no GOARCH fuses it into x - mu.
	mu := float64(Mean(xs))
	s := 0.0
	for _, x := range xs {
		d := x - mu
		// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
		s += float64(d * d)
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	return c
}

// Median returns the median of xs. It panics on empty input.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile of xs using linear interpolation
// between closest ranks (the same rule as numpy's default). q must be in
// [0, 1]. It panics on empty input or out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(errors.New("stats: quantile out of range"))
	}
	c := sortedCopy(xs)
	if len(c) == 1 {
		return c[0]
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c[lo]
	}
	// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
	frac := float64(pos) - float64(lo)
	return float64(c[lo]*(1-frac)) + float64(c[hi]*frac)
}

// BoxSummary is the five-number summary drawn as one box in the paper's
// figures: median, first and third quartiles, and whiskers at the most
// extreme data points within 1.5 IQR of the box (Tukey's rule). Outliers
// holds the points beyond the whiskers.
type BoxSummary struct {
	Median   float64
	Q1, Q3   float64
	WhiskLo  float64
	WhiskHi  float64
	Outliers []float64
	N        int
}

// Box computes the BoxSummary of xs. It panics on empty input.
func Box(xs []float64) BoxSummary {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	b := BoxSummary{
		Median: Quantile(xs, 0.5),
		Q1:     Quantile(xs, 0.25),
		Q3:     Quantile(xs, 0.75),
		N:      len(xs),
	}
	iqr := b.Q3 - b.Q1
	// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
	loFence := b.Q1 - float64(1.5*iqr)
	hiFence := b.Q3 + float64(1.5*iqr)
	b.WhiskLo = math.Inf(1)
	b.WhiskHi = math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			b.Outliers = append(b.Outliers, x)
			continue
		}
		if x < b.WhiskLo {
			b.WhiskLo = x
		}
		if x > b.WhiskHi {
			b.WhiskHi = x
		}
	}
	// All points may be outliers by the fence rule only when IQR is zero
	// and values differ; guard by collapsing whiskers onto the box.
	if math.IsInf(b.WhiskLo, 1) {
		b.WhiskLo = b.Q1
	}
	if math.IsInf(b.WhiskHi, -1) {
		b.WhiskHi = b.Q3
	}
	return b
}

// GeomSpace returns n values forming a geometric progression from lo to hi
// inclusive. It panics unless lo > 0, hi > lo and n >= 2.
//
// The paper's transfer-size sweep is GeomSpace(1e5, 1e10, 10), which yields
// 1.00e5, 3.59e5, 1.29e6, 4.64e6, 1.67e7, 5.99e7, 2.15e8, 7.74e8, 2.78e9,
// 1.00e10 — the exact tick labels of Figures 3-11.
func GeomSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic(errors.New("stats: invalid GeomSpace parameters"))
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[n-1] = hi
	return out
}

// Log2Error returns the paper's error metric for one transfer:
// log2(prediction) - log2(measure). Positive values mean the prediction was
// too slow (over-predicted duration), negative values mean it was too fast.
// It panics if either argument is not strictly positive.
func Log2Error(prediction, measure float64) float64 {
	if prediction <= 0 || measure <= 0 {
		panic(errors.New("stats: Log2Error requires positive durations"))
	}
	return math.Log2(prediction) - math.Log2(measure)
}

// Abs returns a copy of xs with every element replaced by its absolute value.
func Abs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Abs(x)
	}
	return out
}

// FractionBelow returns the fraction of xs strictly below threshold.
// It returns 0 for empty input.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
