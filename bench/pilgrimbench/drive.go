package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pilgrim/internal/pilgrim"
)

// This file drives one live server with a workload: it mints the
// send-time parts of each op, issues it, checks the answer, and turns the
// recorded latencies into the end-to-end metrics.

const (
	// clients is fixed, not nproc: two closed-loop callers on two
	// keep-alive connections, because PNFS callers (a resource manager, a
	// planner) wait for the reply before asking again.
	clients = 2
	// byteCheckEvery: one answer in this many is compared byte for byte
	// against the uncached reference; all are checked for status and length.
	byteCheckEvery = 256
	// minTailSamples: a percentile is reported only from a sample with at
	// least this many observations beyond it.
	minTailSamples = 10
	subWindows     = 10
)

// session is one workload bound to one live server.
type session struct {
	wl *workload
	lv *live

	next atomic.Uint64 // global op sequence number

	// Writes are minted and sent under wmu, so timestamps reach the server
	// in order (the timeline rejects an observation older than its head)
	// whichever client drew the op.
	wmu      sync.Mutex
	writes   atomic.Uint64 // writes minted by this session
	prepared uint64        // observations the data directory held before it
	acked    atomic.Uint64

	// want holds the exact answers of a workload whose requests repeat on
	// a fixed epoch (poll-hit), by op path.
	want map[string][]byte

	attempted atomic.Int64
	failed    atomic.Int64
	noteMu    sync.Mutex
	notes     []string
}

func newSession(wl *workload, lv *live, prepared uint64) *session {
	return &session{wl: wl, lv: lv, prepared: prepared}
}

func (s *session) fail(format string, args ...any) {
	s.failed.Add(1)
	s.noteMu.Lock()
	if len(s.notes) < 8 {
		s.notes = append(s.notes, fmt.Sprintf(format, args...))
	}
	s.noteMu.Unlock()
}

// sent is one issued op with its answer.
type sent struct {
	o           op
	n           uint64
	writeTime   int64
	writeIndex  uint64
	ackedAtSend uint64 // writes acknowledged when a byte-checked read was sent
	status      int
	answer      []byte
	err         error
	start       time.Time
	lat         time.Duration
}

// send issues op n on c. The answer aliases the client's buffer.
func (s *session) send(c *client, n uint64) sent {
	r := sent{o: s.wl.gen(n), n: n}
	if r.o.kind == opUpdate {
		s.wmu.Lock()
		defer s.wmu.Unlock()
		r.writeIndex = s.writes.Add(1) - 1
		r.writeTime = writeEpoch0 + int64(s.prepared+r.writeIndex)
		r.o.updates = s.wl.churn.updates(s.prepared + r.writeIndex)
		r.o.body = updateBody(r.writeTime, r.o.updates)
	}
	r.ackedAtSend = s.acked.Load()
	r.start = time.Now()
	r.status, r.answer, r.err = c.do(r.o.method, r.o.path, r.o.body)
	r.lat = time.Since(r.start)
	return r
}

// verify checks one answer: always transport, status, length and (for
// grids) the tier mix; with byteCheck also every byte against the
// uncached reference. Reports whether the op counts as answered correctly.
func (s *session) verify(r *sent, byteCheck bool) bool {
	s.attempted.Add(1)
	if r.err != nil {
		s.fail("op %d: %v", r.n, r.err)
		return false
	}
	if r.status != 200 {
		s.fail("op %d: status %d: %s", r.n, r.status, firstLine(r.answer))
		return false
	}
	if r.o.kind == opUpdate {
		s.acked.Add(1)
	}
	want := s.want[r.o.path]
	switch {
	case want != nil && len(r.answer) != len(want):
		s.fail("op %d: %d bytes, want %d", r.n, len(r.answer), len(want))
		return false
	case len(r.answer) < r.o.minLen || len(r.answer) > r.o.maxLen:
		s.fail("op %d: %d bytes, want %d..%d", r.n, len(r.answer), r.o.minLen, r.o.maxLen)
		return false
	}
	if r.o.kind == opEvaluate && !hasGridTierMix(r.answer) {
		s.fail("op %d: tier mix is not %d reuse / %d fork / %d cold: %s", r.n, gridReuse, gridFork, gridCold, tail(r.answer, 300))
		return false
	}
	if !byteCheck {
		return true
	}
	if err := s.byteCheck(r, want); err != nil {
		s.fail("op %d: %v", r.n, err)
		return false
	}
	return true
}

func (s *session) byteCheck(r *sent, want []byte) error {
	switch r.o.kind {
	case opPredict:
		if want != nil {
			return sameBytes(r.answer, want)
		}
		// The read was answered on the epoch current when the server
		// handled it: one of those between the writes acknowledged when it
		// was sent and the writes minted by now (the other client keeps
		// writing; a stalled read can see several go by). Write j is
		// stamped writeEpoch0 + prepared + j, so the timeline names each.
		var mismatch error
		for j, minted := r.ackedAtSend, s.writes.Load(); j <= minted; j++ {
			entry, err := s.lv.registry.GetAt(platformName, writeEpoch0+int64(s.prepared+j)-1)
			if err != nil {
				return err
			}
			ref, err := predictReference(entry, r.o.transfers)
			if err != nil {
				return err
			}
			if mismatch = sameBytes(r.answer, ref); mismatch == nil {
				return nil
			}
		}
		return mismatch
	case opEvaluate:
		rows, ok := scenarioRows(r.answer)
		if !ok {
			return fmt.Errorf("evaluate answer has no stats block")
		}
		ref, err := evaluateReference(s.lv.registry, r.o.eval)
		if err != nil {
			return err
		}
		return sameBytes(normalizeEpochs(rows), ref)
	default:
		depth := s.prepared + r.writeIndex + 1
		if depth > pilgrim.DefaultTimelineDepth {
			depth = pilgrim.DefaultTimelineDepth
		}
		ref, err := updateReference(r.writeTime, len(r.o.updates), int(depth))
		if err != nil {
			return err
		}
		return sameBytes(normalizeEpochs(r.answer), ref)
	}
}

func sameBytes(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	return fmt.Errorf("answer differs from the reference at byte %d: got %q, want %q",
		i, clip(got[lo:], 100), clip(want[lo:], 100))
}

func clip(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

func tail(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	return clip(b, 200)
}

// pinRepeats computes the exact answers of a repeating fixed-epoch
// workload once, so every later answer is held to the exact length.
func (s *session) pinRepeats(distinct int) error {
	entry, _ := s.lv.registry.Get(platformName)
	s.want = make(map[string][]byte, distinct)
	for n := 0; n < distinct; n++ {
		o := s.wl.gen(uint64(n))
		ref, err := predictReference(entry, o.transfers)
		if err != nil {
			return err
		}
		if len(ref) < o.minLen || len(ref) > o.maxLen {
			return fmt.Errorf("reference of op %d is %d bytes, outside the generator's %d..%d", n, len(ref), o.minLen, o.maxLen)
		}
		s.want[o.path] = ref
	}
	return nil
}

// byteChecked reports whether op n is one of the 1 in byteCheckEvery whose
// answer is compared byte for byte.
func byteChecked(n uint64) bool { return n%byteCheckEvery == byteCheckEvery-1 }

// sample is one op of the measured loop, times relative to the loop start.
type sample struct {
	start, lat time.Duration
	ok         bool
}

// loop runs the closed loop for d with `clients` clients pulling ops from
// the shared sequence and returns every client's samples.
func (s *session) loop(d time.Duration) [][]sample {
	out := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for ci := range out {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(s.lv.base)
			defer c.close()
			samples := make([]sample, 0, 1<<18)
			for time.Since(t0) < d {
				n := s.next.Add(1) - 1
				byteCheck := byteChecked(n)
				r := s.send(c, n)
				ok := s.verify(&r, byteCheck)
				samples = append(samples, sample{start: r.start.Sub(t0), lat: r.lat, ok: ok})
			}
			out[ci] = samples
		}(ci)
	}
	wg.Wait()
	return out
}

// windowStats are the end-to-end numbers of one measured window.
type windowStats struct {
	attempted   int
	failed      int
	reqPerS     float64
	p50us       float64
	p99us       float64
	samples     int
	minSubCount int  // smallest sub-window sample count
	p99Backed   bool // every sub-window had minTailSamples beyond its p99
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// measure reduces the loop's samples to the window [warm, warm+window):
// ops that started after the warm-up and completed before the end.
func measure(all [][]sample, warm, window time.Duration) windowStats {
	var st windowStats
	end := warm + window
	var lats []time.Duration
	subs := make([][]time.Duration, subWindows)
	for _, samples := range all {
		for _, sm := range samples {
			done := sm.start + sm.lat
			if sm.start < warm || done > end {
				continue
			}
			st.attempted++
			if !sm.ok {
				// A failed request counts as missing any latency: it is
				// left out of the percentiles and of the rate.
				st.failed++
				continue
			}
			lats = append(lats, sm.lat)
			i := int(int64(done-warm) * subWindows / int64(window))
			if i >= subWindows {
				i = subWindows - 1
			}
			subs[i] = append(subs[i], sm.lat)
		}
	}
	st.samples = len(lats)
	if len(lats) == 0 {
		return st
	}
	st.reqPerS = float64(len(lats)) / window.Seconds()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	st.p50us = us(quantile(lats, 0.50))
	// p99 is the median of the ten sub-windows' own p99s, so one
	// noisy-neighbour stall cannot move it.
	st.p99Backed = true
	st.minSubCount = len(subs[0])
	var p99s []float64
	for _, sub := range subs {
		if len(sub) < st.minSubCount {
			st.minSubCount = len(sub)
		}
		if len(sub) == 0 {
			st.p99Backed = false
			continue
		}
		sort.Slice(sub, func(i, j int) bool { return sub[i] < sub[j] })
		p99s = append(p99s, us(quantile(sub, 0.99)))
		if len(sub)-int(math.Ceil(0.99*float64(len(sub)))) < minTailSamples {
			st.p99Backed = false
		}
	}
	st.p99us = median(p99s)
	return st
}
