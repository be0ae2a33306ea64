// Package nws implements the statistical forecasting baseline the paper
// positions Pilgrim against: the Network Weather Service (Wolski, Spring
// & Hayes, FGCS 1999; paper §III-B).
//
// NWS records time series of resource measurements (bandwidth, latency)
// taken by active probes, runs a battery of simple predictors over each
// series, and continuously selects whichever predictor has been most
// accurate so far (the "dynamic predictor selection" that made NWS the
// reference forecaster of the scheduling community).
//
// The key structural difference from Pilgrim: NWS extrapolates each
// path's history independently and therefore cannot anticipate the
// contention between the very transfers being scheduled — a batch of 30
// concurrent transfers is predicted as 30 solo transfers. The
// TestNWSContentionBlindness test and BenchmarkBaselineNWS bench
// demonstrate exactly this failure mode against the simulation-driven
// forecast.
package nws

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Forecaster predicts the next value of a univariate series.
type Forecaster interface {
	// Name identifies the predictor in reports.
	Name() string
	// Update feeds one observation.
	Update(v float64)
	// Predict returns the forecast for the next observation; ok is false
	// until the predictor has enough history.
	Predict() (value float64, ok bool)
}

// lastValue predicts the previous observation (NWS "LAST").
type lastValue struct {
	v  float64
	ok bool
}

// NewLast returns the last-value predictor.
func NewLast() Forecaster { return &lastValue{} }

func (l *lastValue) Name() string { return "LAST" }
func (l *lastValue) Update(v float64) {
	l.v, l.ok = v, true
}
func (l *lastValue) Predict() (float64, bool) { return l.v, l.ok }

// runningMean predicts the mean of all history (NWS "RUN_AVG").
type runningMean struct {
	sum float64
	n   int
}

// NewRunningMean returns the running-mean predictor.
func NewRunningMean() Forecaster { return &runningMean{} }

func (r *runningMean) Name() string { return "RUN_AVG" }
func (r *runningMean) Update(v float64) {
	r.sum += v
	r.n++
}
func (r *runningMean) Predict() (float64, bool) {
	if r.n == 0 {
		return 0, false
	}
	return r.sum / float64(r.n), true
}

// window holds the last k observations.
type window struct {
	buf  []float64
	head int
	full bool
}

func newWindow(k int) *window { return &window{buf: make([]float64, k)} }

func (w *window) push(v float64) {
	w.buf[w.head] = v
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
		w.full = true
	}
}

// valuesInto copies the window contents into dst (which must have
// capacity for the full window) and returns the filled prefix. The copy
// order matches the historical values() layout — raw buffer order — so
// downstream arithmetic is bit-identical, while the pre-sized dst keeps
// Predict allocation-free (forecasts run once per link per horizon query;
// a garbage-free battery is what lets the bank extrapolate a 1k-link
// platform in O(1) allocations).
func (w *window) valuesInto(dst []float64) []float64 {
	if w.full {
		return dst[:copy(dst[:len(w.buf)], w.buf)]
	}
	return dst[:copy(dst[:w.head], w.buf[:w.head])]
}

// slidingMean predicts the mean of the last k observations (NWS
// "SW_AVG").
type slidingMean struct {
	w       *window
	k       int
	scratch []float64
}

// NewSlidingMean returns the k-sample sliding-window mean predictor.
func NewSlidingMean(k int) Forecaster {
	if k < 1 {
		panic(errors.New("nws: window must be >= 1"))
	}
	return &slidingMean{w: newWindow(k), k: k, scratch: make([]float64, k)}
}

func (s *slidingMean) Name() string { return fmt.Sprintf("SW_AVG(%d)", s.k) }
func (s *slidingMean) Update(v float64) {
	s.w.push(v)
}
func (s *slidingMean) Predict() (float64, bool) {
	vs := s.w.valuesInto(s.scratch)
	if len(vs) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs)), true
}

// slidingMedian predicts the median of the last k observations (NWS
// "MEDIAN"). Beside the ring buffer it keeps the window's samples sorted,
// moving one sample out and one in per observation, so Predict reads the
// middle instead of sorting a copy of the window.
type slidingMedian struct {
	w *window
	k int
	// sorted holds the window's samples in sort.Float64s order (NaNs
	// first). Its bit patterns are the window's: an evicted sample is
	// removed by bits, never a ±0 or NaN that merely compares equal.
	sorted []float64
	// nans, negZeros and posZeros count those samples in the window. While
	// it holds a NaN, or both zeros, sort.Float64s's output depends on the
	// window's raw order, so Predict sorts a raw-order copy in scratch.
	nans, negZeros, posZeros int
	scratch                  []float64
}

// NewSlidingMedian returns the k-sample sliding-window median predictor.
func NewSlidingMedian(k int) Forecaster {
	if k < 1 {
		panic(errors.New("nws: window must be >= 1"))
	}
	return &slidingMedian{w: newWindow(k), k: k, sorted: make([]float64, 0, k), scratch: make([]float64, k)}
}

func (s *slidingMedian) Name() string { return fmt.Sprintf("MEDIAN(%d)", s.k) }
func (s *slidingMedian) Update(v float64) {
	if s.w.full {
		s.remove(s.w.buf[s.w.head])
	}
	s.w.push(v)
	s.insert(v)
}

func (s *slidingMedian) Predict() (float64, bool) {
	vs := s.sorted
	if s.nans > 0 || (s.negZeros > 0 && s.posZeros > 0) {
		vs = s.w.valuesInto(s.scratch)
		sort.Float64s(vs)
	}
	n := len(vs)
	if n == 0 {
		return 0, false
	}
	if n%2 == 1 {
		return vs[n/2], true
	}
	return (vs[n/2-1] + vs[n/2]) / 2, true
}

// sortsBefore is sort.Float64s's order.
func sortsBefore(a, b float64) bool { return a < b || (a != a && b == b) }

// count adjusts the NaN and signed-zero tallies for v by delta.
func (s *slidingMedian) count(v float64, delta int) {
	switch {
	case v != v:
		s.nans += delta
	case v == 0 && math.Signbit(v):
		s.negZeros += delta
	case v == 0:
		s.posZeros += delta
	}
}

// insert adds v after every sample that does not sort after it.
func (s *slidingMedian) insert(v float64) {
	lo, hi := 0, len(s.sorted)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); sortsBefore(v, s.sorted[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[lo+1:], s.sorted[lo:])
	s.sorted[lo] = v
	s.count(v, 1)
}

// remove drops one sample with v's bit pattern: a binary search finds the
// run of samples that compare equal to v, a scan of it the exact bits.
func (s *slidingMedian) remove(v float64) {
	lo, hi := 0, len(s.sorted)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); sortsBefore(s.sorted[mid], v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	bits := math.Float64bits(v)
	for math.Float64bits(s.sorted[lo]) != bits {
		lo++
	}
	s.sorted = append(s.sorted[:lo], s.sorted[lo+1:]...)
	s.count(v, -1)
}

// rebuild recomputes the sorted copy and the tallies from the ring buffer.
func (s *slidingMedian) rebuild() {
	s.sorted = s.w.valuesInto(s.sorted[:cap(s.sorted)])
	sort.Float64s(s.sorted)
	s.nans, s.negZeros, s.posZeros = 0, 0, 0
	for _, v := range s.sorted {
		s.count(v, 1)
	}
}

// expSmoothing predicts an exponentially smoothed value (NWS adaptive
// mean family).
type expSmoothing struct {
	gain float64
	v    float64
	ok   bool
}

// NewExpSmoothing returns an exponential-smoothing predictor with the
// given gain in (0, 1].
func NewExpSmoothing(gain float64) Forecaster {
	if gain <= 0 || gain > 1 {
		panic(errors.New("nws: gain must be in (0, 1]"))
	}
	return &expSmoothing{gain: gain}
}

func (e *expSmoothing) Name() string { return fmt.Sprintf("EXP(%.2g)", e.gain) }
func (e *expSmoothing) Update(v float64) {
	if !e.ok {
		e.v, e.ok = v, true
		return
	}
	// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
	e.v = float64(e.gain*v) + float64((1-e.gain)*e.v)
}
func (e *expSmoothing) Predict() (float64, bool) { return e.v, e.ok }

// Selector runs a battery of predictors and forecasts with whichever has
// the lowest cumulative absolute error so far — NWS's dynamic predictor
// selection.
type Selector struct {
	fs  []Forecaster
	mae []float64
	n   int
}

// NewSelector builds a selector over the given predictors. With no
// arguments it uses the standard NWS battery.
func NewSelector(fs ...Forecaster) *Selector {
	if len(fs) == 0 {
		fs = []Forecaster{
			NewLast(),
			NewRunningMean(),
			NewSlidingMean(5),
			NewSlidingMean(20),
			NewSlidingMedian(5),
			NewSlidingMedian(21),
			NewExpSmoothing(0.05),
			NewExpSmoothing(0.3),
		}
	}
	return &Selector{fs: fs, mae: make([]float64, len(fs))}
}

// Update scores every predictor against the new observation, then feeds
// it to all of them.
func (s *Selector) Update(v float64) {
	for i, f := range s.fs {
		if p, ok := f.Predict(); ok {
			s.mae[i] += math.Abs(p - v)
		}
		f.Update(v)
	}
	s.n++
}

// Predict returns the forecast of the currently best predictor.
func (s *Selector) Predict() (float64, bool) {
	best, ok := s.best()
	if !ok {
		return 0, false
	}
	return best.Predict()
}

// Best returns the name of the currently best predictor (lowest
// cumulative MAE; ties resolve to battery order).
func (s *Selector) Best() string {
	best, ok := s.best()
	if !ok {
		return ""
	}
	return best.Name()
}

func (s *Selector) best() (Forecaster, bool) {
	if s.n == 0 {
		return nil, false
	}
	bi := -1
	for i, f := range s.fs {
		if _, ok := f.Predict(); !ok {
			continue
		}
		if bi == -1 || s.mae[i] < s.mae[bi] {
			bi = i
		}
	}
	if bi == -1 {
		return nil, false
	}
	return s.fs[bi], true
}

// PathForecaster forecasts TCP transfer completion times for one network
// path the NWS way: separate forecast series for available bandwidth
// (bytes/s, from periodic probes) and latency (seconds), combined as
//
//	duration = latency + size / bandwidth.
//
// It has no notion of the other transfers in a request batch — the
// contention blindness the simulation-driven approach removes.
type PathForecaster struct {
	Bandwidth *Selector
	Latency   *Selector
}

// NewPathForecaster returns an empty path forecaster.
func NewPathForecaster() *PathForecaster {
	return &PathForecaster{Bandwidth: NewSelector(), Latency: NewSelector()}
}

// Observe records one probe: measured bandwidth and round-trip latency.
func (p *PathForecaster) Observe(bandwidth, latency float64) {
	p.Bandwidth.Update(bandwidth)
	p.Latency.Update(latency)
}

// PredictTransfer forecasts the completion time of size bytes on this
// path. ok is false until at least one probe was observed.
func (p *PathForecaster) PredictTransfer(size float64) (float64, bool) {
	bw, ok1 := p.Bandwidth.Predict()
	lat, ok2 := p.Latency.Predict()
	if !ok1 || !ok2 || bw <= 0 {
		return 0, false
	}
	return lat + size/bw, true
}
