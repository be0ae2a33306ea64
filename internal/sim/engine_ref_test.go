package sim

// This file retains a scan-based reference implementation of the event
// kernel and pits the production indexed-heap engine against it on
// randomized workloads. The reference uses the same lazy-progress
// arithmetic (remaining settled only on rate changes, absolute projected
// event dates) but finds and processes events by scanning every live
// activity — the O(n) structure the heap replaced. Completion dates and
// SharingStats must match the heap engine bit for bit: any divergence
// means the heap indexing, tie-breaking or re-keying machinery changed
// the simulation, not just its complexity.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pilgrim/internal/flow"
	"pilgrim/internal/platform"
)

// refActivity mirrors activity for the scan-based reference kernel.
type refActivity struct {
	id         ActivityID
	kind       activityKind
	phase      activityPhase
	persistent bool

	start      float64
	latLeft    float64
	remaining  float64
	lastUpdate float64
	rate       float64
	eventAt    float64 // absolute next-event date (latency end / completion)

	links  []platform.LinkUse
	weight float64
	bound  float64
	host   *platform.Host

	fv       *flow.Variable
	finished float64
}

// refConstraintKey is the historical map key addressing shared resources
// by pointer — the representation the production engine's dense
// link/host-index arrays replaced.
type refConstraintKey struct {
	link *platform.Link
	dir  platform.Direction
	host *platform.Host
}

// refEngine is the scan-based kernel: same model, same arithmetic, O(n)
// event search and O(n) event processing per step.
type refEngine struct {
	cfg   Config
	plat  *platform.Platform
	snap  *platform.Snapshot
	now   float64
	acts  []*refActivity // id order
	dirty bool
	sys   *flow.System
	cnsts map[refConstraintKey]*flow.Constraint

	events int
}

func newRefEngine(plat *platform.Platform, cfg Config) *refEngine {
	return &refEngine{
		cfg:   cfg,
		plat:  plat,
		snap:  plat.Snapshot(),
		sys:   flow.NewSystem(),
		cnsts: make(map[refConstraintKey]*flow.Constraint),
	}
}

func (e *refEngine) addComm(src, dst string, size, start float64) (ActivityID, error) {
	route, err := e.snap.Route(src, dst)
	if err != nil {
		return 0, err
	}
	a := &refActivity{
		id:        ActivityID(len(e.acts)),
		kind:      commActivity,
		phase:     phaseScheduled,
		start:     start,
		latLeft:   e.cfg.LatencyFactor * route.Latency,
		remaining: size,
		links:     e.linkUses(route),
		weight:    1 / e.cfg.rttWeight(route.Latency),
		bound:     e.cfg.windowBound(route.Latency),
	}
	e.acts = append(e.acts, a)
	e.dirty = true
	return a.id, nil
}

// linkUses maps a compiled route's traversals to the builder's links.
func (e *refEngine) linkUses(r *platform.CompiledRoute) []platform.LinkUse {
	out := make([]platform.LinkUse, len(r.Refs))
	for i, ref := range r.Refs {
		out[i] = platform.LinkUse{Link: e.plat.Link(e.snap.LinkName(ref.LinkIndex())), Direction: ref.Direction()}
	}
	return out
}

func (e *refEngine) addBackgroundFlow(src, dst string, start float64) (ActivityID, error) {
	id, err := e.addComm(src, dst, math.MaxFloat64/4, start)
	if err != nil {
		return 0, err
	}
	e.acts[id].persistent = true
	return id, nil
}

func (e *refEngine) addExec(host string, flops, start float64) (ActivityID, error) {
	h := e.plat.Host(host)
	if h == nil {
		return 0, fmt.Errorf("ref: unknown host %q", host)
	}
	a := &refActivity{
		id:        ActivityID(len(e.acts)),
		kind:      execActivity,
		phase:     phaseScheduled,
		start:     start,
		remaining: flops,
		host:      h,
	}
	e.acts = append(e.acts, a)
	e.dirty = true
	return a.id, nil
}

func (e *refEngine) constraintFor(k refConstraintKey, capacity float64) *flow.Constraint {
	if c, ok := e.cnsts[k]; ok {
		return c
	}
	id := "cpu:"
	if k.host == nil {
		id = k.link.ID + ":" + k.dir.String()
	} else {
		id += k.host.ID
	}
	c := e.sys.NewConstraint(id, capacity)
	e.cnsts[k] = c
	return c
}

func (e *refEngine) activate(a *refActivity) {
	a.phase = phaseActive
	a.lastUpdate = e.now
	switch a.kind {
	case commActivity:
		bound := a.bound
		for _, u := range a.links {
			if u.Link.Policy == platform.Fatpipe {
				cap := u.Link.Bandwidth * e.cfg.BandwidthFactor
				if bound == 0 || cap < bound {
					bound = cap
				}
			}
		}
		v := e.sys.NewVariable("", a.weight, bound)
		v.SetData(a)
		a.fv = v
		a.rate = 0
		a.eventAt = math.Inf(1)
		for _, u := range a.links {
			switch u.Link.Policy {
			case platform.Shared:
				c := e.constraintFor(refConstraintKey{link: u.Link, dir: platform.None},
					u.Link.Bandwidth*e.cfg.BandwidthFactor)
				if err := e.sys.Attach(v, c); err != nil {
					continue
				}
			case platform.FullDuplex:
				dir := u.Direction
				if dir == platform.None {
					dir = platform.Up
				}
				c := e.constraintFor(refConstraintKey{link: u.Link, dir: dir},
					u.Link.Bandwidth*e.cfg.BandwidthFactor)
				if err := e.sys.Attach(v, c); err != nil {
					continue
				}
			}
		}
	case execActivity:
		v := e.sys.NewVariable("", 1, 0)
		v.SetData(a)
		a.fv = v
		a.rate = 0
		a.eventAt = math.Inf(1)
		c := e.constraintFor(refConstraintKey{host: a.host}, a.host.Speed)
		e.sys.MustAttach(v, c)
	}
	e.dirty = true
}

func (e *refEngine) deactivate(a *refActivity) {
	if a.fv != nil {
		e.sys.RemoveVariable(a.fv)
		a.fv = nil
	}
	e.dirty = true
}

func (e *refEngine) reshare() error {
	e.events++
	if err := e.sys.Solve(); err != nil {
		return err
	}
	for _, v := range e.sys.Touched() {
		a, _ := v.Data().(*refActivity)
		if a == nil {
			continue
		}
		r := v.Rate()
		if r == a.rate {
			continue
		}
		if a.phase != phaseActive || a.persistent {
			a.rate = r
			continue
		}
		if e.now > a.lastUpdate {
			a.remaining -= float64(a.rate * (e.now - a.lastUpdate))
			if a.remaining < 0 {
				a.remaining = 0
			}
		}
		a.lastUpdate = e.now
		a.rate = r
		a.eventAt = math.Inf(1)
		if r > 0 {
			a.eventAt = e.now + a.remaining/r
		}
	}
	e.dirty = false
	return nil
}

// key returns the activity's next-event date, +Inf when none.
func (a *refActivity) key() float64 {
	switch a.phase {
	case phaseScheduled:
		return a.start
	case phaseLatency:
		return a.eventAt
	case phaseActive:
		if a.persistent {
			return math.Inf(1)
		}
		return a.eventAt
	}
	return math.Inf(1)
}

func (e *refEngine) step() (completed []ActivityID, ok bool, err error) {
	if e.dirty {
		if err := e.reshare(); err != nil {
			return nil, false, err
		}
	}
	t := math.Inf(1)
	for _, a := range e.acts {
		if k := a.key(); k < t {
			t = k
		}
	}
	if math.IsInf(t, 1) {
		for _, a := range e.acts {
			if a.phase == phaseActive && !a.persistent && a.rate <= 0 {
				return nil, false, fmt.Errorf("ref: activity %d stalled", a.id)
			}
		}
		return nil, false, nil
	}
	e.now = t
	for _, a := range e.acts {
		if a.key() != t {
			continue
		}
		switch a.phase {
		case phaseScheduled:
			if a.kind == commActivity && a.latLeft > 0 {
				a.phase = phaseLatency
				a.eventAt = e.now + a.latLeft
			} else {
				e.activate(a)
			}
		case phaseLatency:
			a.latLeft = 0
			e.activate(a)
		case phaseActive:
			a.remaining = 0
			a.phase = phaseDone
			a.finished = e.now
			e.deactivate(a)
			completed = append(completed, a.id)
		}
	}
	return completed, true, nil
}

// runToCompletion mirrors Engine.RunToCompletion, observer included.
func (e *refEngine) runToCompletion(observe func(ActivityID) error) (int, error) {
	total, steps := 0, 0
	for {
		done, ok, err := e.step()
		if err != nil {
			return total, err
		}
		total += len(done)
		if !ok {
			return total, nil
		}
		for _, id := range done {
			if err := observe(id); err != nil {
				return total, err
			}
		}
		if steps++; steps > 100*(len(e.acts)+10) {
			return total, fmt.Errorf("ref: event budget exhausted at t=%v", e.now)
		}
	}
}

// buildRandomPlatform creates a star topology: every host owns an up and
// a down private link to a shared backbone, with randomized capacities,
// latencies and sharing policies.
func buildRandomPlatform(t *testing.T, rng *rand.Rand, hosts int) *platform.Platform {
	t.Helper()
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	policies := []platform.SharingPolicy{platform.Shared, platform.FullDuplex, platform.Fatpipe}
	bb, err := as.AddLink("bb", 1e9*(0.5+float64(rng.Float64())), 1e-4*rng.Float64(), platform.Shared)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, hosts)
	ups := make([]*platform.Link, hosts)
	downs := make([]*platform.Link, hosts)
	for i := 0; i < hosts; i++ {
		names[i] = fmt.Sprintf("h%d", i)
		if _, err := as.AddHost(names[i], 1e9*(0.5+float64(rng.Float64()))); err != nil {
			t.Fatal(err)
		}
		ups[i], err = as.AddLink(fmt.Sprintf("up%d", i),
			1e8*(0.2+float64(rng.Float64())), 1e-3*rng.Float64(), policies[rng.Intn(len(policies))])
		if err != nil {
			t.Fatal(err)
		}
		downs[i], err = as.AddLink(fmt.Sprintf("down%d", i),
			1e8*(0.2+float64(rng.Float64())), 1e-3*rng.Float64(), policies[rng.Intn(len(policies))])
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			if i == j {
				continue
			}
			route := []platform.LinkUse{
				{Link: ups[i], Direction: platform.Up},
				{Link: bb, Direction: platform.None},
				{Link: downs[j], Direction: platform.Down},
			}
			if err := as.AddRoute(names[i], names[j], route, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return p
}

// refWorkload drives both engines identically: concurrent transfers with
// random sizes and starts, execs, a background flow, and a
// completion-chained follow-up.
type refWorkload struct {
	comms  []Transfer
	execs  []Transfer // Src = host, Size = flops
	bgPair [2]string
	chain  Transfer // extra transfer launched when comms[0] completes
}

func randomWorkload(rng *rand.Rand, hosts int) refWorkload {
	name := func(i int) string { return fmt.Sprintf("h%d", i) }
	pair := func() (string, string) {
		a := rng.Intn(hosts)
		b := rng.Intn(hosts - 1)
		if b >= a {
			b++
		}
		return name(a), name(b)
	}
	var w refWorkload
	n := 3 + rng.Intn(10)
	for i := 0; i < n; i++ {
		src, dst := pair()
		w.comms = append(w.comms, Transfer{
			Src: src, Dst: dst,
			Size:  math.Exp(rng.Float64()*9) * 1e4,
			Start: float64(rng.Intn(3)) * rng.Float64(),
		})
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		w.execs = append(w.execs, Transfer{Src: name(rng.Intn(hosts)), Size: 1e8 * (0.5 + float64(rng.Float64()))})
	}
	w.bgPair[0], w.bgPair[1] = pair()
	src, dst := pair()
	w.chain = Transfer{Src: src, Dst: dst, Size: 1e6 * (1 + float64(rng.Float64()))}
	return w
}

// kernelOps wires runWorkload to one kernel.
type kernelOps struct {
	addComm func(src, dst string, size, start float64) (ActivityID, error)
	addExec func(host string, flops, start float64) (ActivityID, error)
	addBG   func(src, dst string, start float64) (ActivityID, error)
	now     func() float64
	run     func(observe func(ActivityID) error) (int, error)
}

// runWorkload drives one kernel through the workload, reacting to
// completions through the run observer: it reads each comm's date as the
// completion is reported and launches the chained transfer when comms[0]
// completes. It returns per-comm completion dates and the chained
// transfer's.
func runWorkload(t *testing.T, w refWorkload, ops kernelOps) (dates []float64, chainDate float64) {
	t.Helper()
	dates = make([]float64, len(w.comms))
	if _, err := ops.addBG(w.bgPair[0], w.bgPair[1], 0); err != nil {
		t.Fatal(err)
	}
	comm := make(map[ActivityID]int, len(w.comms))
	for i, c := range w.comms {
		id, err := ops.addComm(c.Src, c.Dst, c.Size, c.Start)
		if err != nil {
			t.Fatal(err)
		}
		comm[id] = i
	}
	for _, x := range w.execs {
		if _, err := ops.addExec(x.Src, x.Size, 0); err != nil {
			t.Fatal(err)
		}
	}
	chainID := ActivityID(-1)
	observe := func(id ActivityID) error {
		now := ops.now()
		if id == chainID {
			chainDate = now
			return nil
		}
		i, ok := comm[id]
		if !ok {
			return nil // an exec
		}
		dates[i] = now
		if i == 0 {
			var err error
			if chainID, err = ops.addComm(w.chain.Src, w.chain.Dst, w.chain.Size, now); err != nil {
				return fmt.Errorf("chain: %w", err)
			}
		}
		return nil
	}
	if _, err := ops.run(observe); err != nil {
		t.Fatal(err)
	}
	return dates, chainDate
}

// TestHeapKernelMatchesScanReference is the differential property test:
// on randomized platforms and workloads, the indexed-heap kernel must
// reproduce the scan-based reference's completion dates and SharingStats
// exactly (bit-for-bit), including a background flow and mid-run
// activity chaining.
func TestHeapKernelMatchesScanReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			hosts := 3 + rng.Intn(6)
			plat := buildRandomPlatform(t, rng, hosts)
			w := randomWorkload(rng, hosts)
			cfg := DefaultConfig()
			if rng.Intn(2) == 0 {
				cfg.TCPGamma = 0 // exercise the unbounded-variable path too
			}

			eng := NewEngineSnapshot(plat.Snapshot(), cfg)
			engDates, engChain := runWorkload(t, w, kernelOps{
				addComm: eng.AddComm,
				addExec: eng.AddExec,
				addBG:   eng.AddBackgroundFlow,
				now:     eng.Now,
				run:     eng.RunToCompletion,
			})

			ref := newRefEngine(plat, cfg)
			refDates, refChain := runWorkload(t, w, kernelOps{
				addComm: ref.addComm,
				addExec: ref.addExec,
				addBG:   ref.addBackgroundFlow,
				now:     func() float64 { return ref.now },
				run:     ref.runToCompletion,
			})

			for i := range engDates {
				if engDates[i] != refDates[i] {
					t.Errorf("comm %d: heap=%v (bits %x) ref=%v (bits %x)",
						i, engDates[i], math.Float64bits(engDates[i]),
						refDates[i], math.Float64bits(refDates[i]))
				}
			}
			if engChain != refChain {
				t.Errorf("chained comm: heap=%v ref=%v", engChain, refChain)
			}
			if eng.SharingStats().Resharings != ref.events {
				t.Errorf("resharings: heap=%d ref=%d", eng.SharingStats().Resharings, ref.events)
			}
			es, rs := eng.SharingStats(), ref.sys
			if es.VariablesTouched != rs.TotalTouched() || es.LastTouched != rs.LastTouched() {
				t.Errorf("sharing stats: heap=%+v ref total=%d last=%d",
					es, rs.TotalTouched(), rs.LastTouched())
			}
		})
	}
}

// TestEnginePoolReuseAfterAbandonedRun is a regression test: releasing
// an engine mid-run (live activities still in flight, as PredictTransfers
// does on error paths) must leave no stale arena state behind — the next,
// smaller run on the recycled engine used to panic in the empty-heap
// stall scan when a stale activity id indexed the truncated slotOf slice.
func TestEnginePoolReuseAfterAbandonedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	plat := buildRandomPlatform(t, rng, 7)
	cfg := DefaultConfig()

	e := AcquireEngineSnapshot(plat.Snapshot(), cfg)
	for i := 0; i < 6; i++ {
		if _, err := e.AddComm(fmt.Sprintf("h%d", i), fmt.Sprintf("h%d", i+1), 1e8, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Step until a flow with id >= 1 sits freshly activated (rate still
	// 0, its resharing pending) — the stale state whose id would index
	// past run 2's shorter slotOf — then abandon the run mid-flight.
	staleActive := false
	for i := 0; i < 20 && !staleActive; i++ {
		if _, _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		for _, a := range e.arena {
			if a.id >= 1 && a.phase == phaseActive && a.rate <= 0 {
				staleActive = true
			}
		}
	}
	if !staleActive {
		t.Fatal("precondition not reached: no freshly-activated high-id flow to leave behind")
	}
	ReleaseEngine(e)

	e = AcquireEngineSnapshot(plat.Snapshot(), cfg)
	defer ReleaseEngine(e)
	if _, err := e.AddComm("h0", "h1", 1e6, 0); err != nil {
		t.Fatal(err)
	}
	n, err := e.RunToCompletion(nil)
	if err != nil || n != 1 {
		t.Fatalf("recycled run: n=%d err=%v", n, err)
	}
}

// TestEnginePoolBitIdentical checks that a recycled engine reproduces a
// fresh engine's results exactly: the pool must be invisible except to
// the allocator.
func TestEnginePoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plat := buildRandomPlatform(t, rng, 6)
	w := randomWorkload(rng, 6)
	cfg := DefaultConfig()

	run := func(e *Engine) ([]float64, float64, int) {
		dates, chain := runWorkload(t, w, kernelOps{
			addComm: e.AddComm,
			addExec: e.AddExec,
			addBG:   e.AddBackgroundFlow,
			now:     e.Now,
			run:     e.RunToCompletion,
		})
		return dates, chain, e.SharingStats().Resharings
	}

	fresh := NewEngineSnapshot(plat.Snapshot(), cfg)
	fd, fc, fr := run(fresh)

	// Churn the pool: acquire, run, release, then run the real comparison
	// on a recycled engine.
	warm := AcquireEngineSnapshot(plat.Snapshot(), cfg)
	run(warm)
	ReleaseEngine(warm)
	recycled := AcquireEngineSnapshot(plat.Snapshot(), cfg)
	defer ReleaseEngine(recycled)
	rd, rc, rr := run(recycled)

	for i := range fd {
		if fd[i] != rd[i] {
			t.Errorf("comm %d: fresh=%v recycled=%v", i, fd[i], rd[i])
		}
	}
	if fc != rc || fr != rr {
		t.Errorf("fresh (chain=%v resharings=%d) vs recycled (chain=%v resharings=%d)", fc, fr, rc, rr)
	}
}
