// Package rrd implements a round-robin database for time series, the
// storage format of the sysadmin metrology tools (Ganglia, Munin, Cacti,
// Smokeping) that Pilgrim's metrology service fronts (paper §III-A,
// §IV-C1).
//
// An RRD stores one or more data sources (DS) at a fixed primary step.
// Incoming updates are rate-normalized into primary data points (PDPs);
// each round-robin archive (RRA) consolidates a fixed number of PDPs per
// row with a consolidation function (AVERAGE, MIN, MAX, LAST) into a ring
// of fixed size. Old data is thus kept at progressively coarser
// resolutions in bounded space — and the chore Pilgrim's RRD web service
// hides is exactly the one Fetch/FetchBest solve: picking, for a given
// time window, the most accurate archive(s) available (§IV-C1: "the
// service will answer with all metric values between these bounds,
// automatically gathering the most accurate data from the different
// round-robin archives").
package rrd

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CF is a consolidation function.
type CF int

// Consolidation functions, rrdtool-compatible.
const (
	Average CF = iota
	Min
	Max
	Last
)

// String returns the rrdtool spelling.
func (c CF) String() string {
	switch c {
	case Average:
		return "AVERAGE"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Last:
		return "LAST"
	default:
		return fmt.Sprintf("CF(%d)", int(c))
	}
}

// ParseCF converts the rrdtool spelling back to a CF.
func ParseCF(s string) (CF, error) {
	switch s {
	case "AVERAGE", "":
		return Average, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	case "LAST":
		return Last, nil
	default:
		return Average, fmt.Errorf("rrd: unknown consolidation function %q", s)
	}
}

// DSKind is the data-source kind.
type DSKind int

// Data source kinds: Gauge stores instantaneous values; Counter stores a
// monotonically increasing count and records its rate of change.
const (
	Gauge DSKind = iota
	Counter
)

// DS declares one data source.
type DS struct {
	Name string
	Kind DSKind
	// Heartbeat is the maximum silence in seconds before the source is
	// considered unknown for the uncovered span.
	Heartbeat int64
}

// RRA declares one archive: Rows rows, each consolidating PdpPerRow
// primary data points with CF.
type RRA struct {
	CF        CF
	PdpPerRow int
	Rows      int
}

// resolution returns the archive's seconds-per-row for a given step.
func (a RRA) resolution(step int64) int64 { return step * int64(a.PdpPerRow) }

// rraState is the live ring of one archive.
type rraState struct {
	def RRA
	// ring[i*nDS+d] is row i's value for DS d; NaN = unknown.
	ring []float64
	// head is the index of the next row to write.
	head int
	// written counts total rows ever written (to bound valid history).
	written int64
	// accum holds the in-progress consolidation per DS.
	accum []float64
	// accumKnown counts, per DS, how many known PDPs entered accum.
	accumKnown []int
	// accumN counts PDPs consolidated into accum so far.
	accumN int
}

// RRD is an in-memory round-robin database; see Save/Load for the on-disk
// form.
type RRD struct {
	step int64
	dss  []DS
	rras []*rraState

	// lastUpdate is the timestamp of the last update (0 = none yet).
	lastUpdate int64
	// lastValues holds the previous raw values (for Counter rates).
	lastValues []float64
	// pdpSum/pdpCover accumulate the current step bucket per DS.
	pdpSum   []float64
	pdpCover []float64
	// pdpStart is the start of the current step bucket.
	pdpStart int64
}

// Create builds an empty RRD with the given primary step (seconds), data
// sources and archives.
func Create(step int64, dss []DS, rras []RRA) (*RRD, error) {
	if step <= 0 {
		return nil, errors.New("rrd: step must be positive")
	}
	if len(dss) == 0 {
		return nil, errors.New("rrd: at least one data source required")
	}
	seen := map[string]bool{}
	for _, ds := range dss {
		if ds.Name == "" {
			return nil, errors.New("rrd: empty DS name")
		}
		if seen[ds.Name] {
			return nil, fmt.Errorf("rrd: duplicate DS %q", ds.Name)
		}
		seen[ds.Name] = true
		if ds.Heartbeat <= 0 {
			return nil, fmt.Errorf("rrd: DS %q needs a positive heartbeat", ds.Name)
		}
	}
	if len(rras) == 0 {
		return nil, errors.New("rrd: at least one archive required")
	}
	r := &RRD{
		step:       step,
		dss:        append([]DS(nil), dss...),
		lastValues: make([]float64, len(dss)),
		pdpSum:     make([]float64, len(dss)),
		pdpCover:   make([]float64, len(dss)),
	}
	for _, def := range rras {
		if def.PdpPerRow <= 0 || def.Rows <= 0 {
			return nil, fmt.Errorf("rrd: invalid RRA %+v", def)
		}
		st := &rraState{
			def:        def,
			ring:       make([]float64, def.Rows*len(dss)),
			accum:      make([]float64, len(dss)),
			accumKnown: make([]int, len(dss)),
		}
		for i := range st.ring {
			st.ring[i] = math.NaN()
		}
		resetAccum(st, def.CF, len(dss))
		r.rras = append(r.rras, st)
	}
	return r, nil
}

func resetAccum(st *rraState, cf CF, nDS int) {
	st.accumN = 0
	for d := 0; d < nDS; d++ {
		st.accumKnown[d] = 0
		switch cf {
		case Min:
			st.accum[d] = math.Inf(1)
		case Max:
			st.accum[d] = math.Inf(-1)
		default:
			st.accum[d] = 0
		}
	}
}

// Step returns the primary step in seconds.
func (r *RRD) Step() int64 { return r.step }

// DataSources returns the declared data sources.
func (r *RRD) DataSources() []DS { return r.dss }

// Archives returns the declared archive definitions.
func (r *RRD) Archives() []RRA {
	out := make([]RRA, len(r.rras))
	for i, st := range r.rras {
		out[i] = st.def
	}
	return out
}

// LastUpdate returns the timestamp of the most recent update (0 if none).
func (r *RRD) LastUpdate() int64 { return r.lastUpdate }

// Update records values (one per DS) observed at timestamp ts (Unix
// seconds). Timestamps must be strictly increasing. Use math.NaN for an
// unknown sample.
func (r *RRD) Update(ts int64, values []float64) error {
	if len(values) != len(r.dss) {
		return fmt.Errorf("rrd: got %d values for %d data sources", len(values), len(r.dss))
	}
	if ts <= r.lastUpdate {
		return fmt.Errorf("rrd: timestamp %d not after last update %d", ts, r.lastUpdate)
	}
	if r.lastUpdate == 0 {
		// First update primes the state; rates need a previous sample.
		r.lastUpdate = ts
		copy(r.lastValues, values)
		r.pdpStart = ts - ts%r.step
		return nil
	}

	// Per-DS rate/value over the elapsed interval.
	elapsed := float64(ts - r.lastUpdate)
	rates := make([]float64, len(r.dss))
	for d, ds := range r.dss {
		v := values[d]
		gap := ts - r.lastUpdate
		switch {
		case math.IsNaN(v) || gap > ds.Heartbeat:
			rates[d] = math.NaN()
		case ds.Kind == Counter:
			delta := v - r.lastValues[d]
			if delta < 0 {
				// Counter reset: treat the interval as unknown.
				rates[d] = math.NaN()
			} else {
				rates[d] = delta / elapsed
			}
		default: // Gauge
			rates[d] = v
		}
		if !math.IsNaN(v) {
			r.lastValues[d] = v
		}
	}

	// Distribute the interval [lastUpdate, ts] over step buckets.
	cur := r.lastUpdate
	for cur < ts {
		bucketEnd := r.pdpStart + r.step
		segEnd := bucketEnd
		if ts < segEnd {
			segEnd = ts
		}
		span := float64(segEnd - cur)
		for d := range r.dss {
			if !math.IsNaN(rates[d]) {
				// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
				r.pdpSum[d] += float64(rates[d] * span)
				r.pdpCover[d] += span
			}
		}
		cur = segEnd
		if cur >= bucketEnd {
			r.finishPDP()
			r.pdpStart = bucketEnd
		}
	}
	r.lastUpdate = ts
	return nil
}

// finishPDP closes the current step bucket and feeds the PDP into every
// archive.
func (r *RRD) finishPDP() {
	pdp := make([]float64, len(r.dss))
	for d := range r.dss {
		// Require at least half the step covered, like rrdtool's
		// xff-at-the-PDP-level simplification.
		if r.pdpCover[d]*2 < float64(r.step) {
			pdp[d] = math.NaN()
		} else {
			pdp[d] = r.pdpSum[d] / r.pdpCover[d]
		}
		r.pdpSum[d] = 0
		r.pdpCover[d] = 0
	}
	for _, st := range r.rras {
		consolidate(st, pdp, len(r.dss), r.pdpStart+r.step, r.step)
	}
}

// consolidate merges one PDP, ending at end, into an archive's
// accumulator, emitting a row when the PDP closes one. Rows are aligned
// on multiples of the archive's resolution, as rrdtool's are, so the
// first row after the first update may consolidate fewer PDPs.
func consolidate(st *rraState, pdp []float64, nDS int, end, step int64) {
	for d := 0; d < nDS; d++ {
		v := pdp[d]
		if math.IsNaN(v) {
			// Unknown PDPs are skipped; a row consolidates over the
			// known points only and is unknown when none exist.
			continue
		}
		st.accumKnown[d]++
		switch st.def.CF {
		case Average:
			st.accum[d] += v
		case Min:
			if v < st.accum[d] {
				st.accum[d] = v
			}
		case Max:
			if v > st.accum[d] {
				st.accum[d] = v
			}
		case Last:
			st.accum[d] = v
		}
	}
	st.accumN++
	if end%st.def.resolution(step) != 0 {
		return
	}
	// Emit the row.
	row := st.head * nDS
	for d := 0; d < nDS; d++ {
		v := st.accum[d]
		if st.accumKnown[d] == 0 {
			v = math.NaN()
		} else if st.def.CF == Average {
			v = v / float64(st.accumKnown[d])
		}
		st.ring[row+d] = v
	}
	st.head = (st.head + 1) % st.def.Rows
	st.written++
	resetAccum(st, st.def.CF, nDS)
}

// Series is a fetched slice of time series data. Row i covers
// [Start + i*Step, Start + (i+1)*Step) and holds one value per DS.
type Series struct {
	Start int64
	Step  int64
	Names []string
	Rows  [][]float64
}

// rowTime returns the start timestamp of ring row i (0 = oldest valid).
func (r *RRD) rraRange(st *rraState) (first, last int64) {
	res := st.def.resolution(r.step)
	// The archive's most recent complete row ends at the last completed
	// consolidation boundary.
	completedPDPs := (r.pdpStart - 0) / r.step // PDPs fully closed since epoch
	completedRows := completedPDPs / int64(st.def.PdpPerRow)
	lastEnd := completedRows * res
	valid := st.written
	if valid > int64(st.def.Rows) {
		valid = int64(st.def.Rows)
	}
	first = lastEnd - valid*res
	return first, lastEnd
}

// valueAt returns the value of the archive row containing t, or NaN.
func (r *RRD) valueAt(st *rraState, t int64, d int) float64 {
	res := st.def.resolution(r.step)
	first, last := r.rraRange(st)
	if t < first || t >= last {
		return math.NaN()
	}
	// Row index counted back from head-1 (most recent) to the row
	// [t - t mod res, +res), which holds t.
	back := (last - (t - mod(t, res))) / res // 1 = most recent row
	idx := (st.head - int(back) + st.def.Rows*2) % st.def.Rows
	return st.ring[idx*len(r.dss)+d]
}

// FetchBest stitches the most accurate data available across all archives
// with the given CF: recent ranges come from fine archives, older ranges
// from coarse ones. This is the Pilgrim metrology service's query
// semantics (§IV-C1).
func (r *RRD) FetchBest(cf CF, begin, end int64) (*Series, error) {
	if end <= begin {
		return nil, fmt.Errorf("rrd: empty fetch range [%d, %d)", begin, end)
	}
	var cands []*rraState
	for _, st := range r.rras {
		if st.def.CF == cf {
			cands = append(cands, st)
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("rrd: no archive with CF %v", cf)
	}
	// Finest first.
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].def.PdpPerRow < cands[j].def.PdpPerRow
	})
	finest := cands[0]
	res := finest.def.resolution(r.step)
	start := begin - mod(begin, res)
	s := &Series{Start: start, Step: res, Names: dsNames(r.dss)}
	for t := start; t < end; t += res {
		row := make([]float64, len(r.dss))
		for d := range r.dss {
			v := math.NaN()
			// Try archives finest to coarsest until one has data.
			for _, st := range cands {
				v = r.valueAt(st, t, d)
				if !math.IsNaN(v) {
					break
				}
			}
			row[d] = v
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

func dsNames(dss []DS) []string {
	out := make([]string, len(dss))
	for i, d := range dss {
		out[i] = d.Name
	}
	return out
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
