package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pilgrim/internal/flow"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

// This file replays the layers below pilgrim.server for the ops the
// traced server answered: per op, top layer first, each layer right after
// the one above it. A lower layer therefore runs on caches the layer above
// just warmed and is, if anything, quicker than it was inside that layer
// — the bias is towards a larger self time above, never a negative one.

// replayer holds the harness-owned twins of the server's internal state
// that the replays run on: they see the same request sequence against the
// same epochs, so they hit and miss exactly when the server's do.
type replayer struct {
	tr  *tracer
	reg *pilgrim.Registry // the traced server's registry (read-only here)
	cfg sim.Config

	cache    *pilgrim.ForecastCache
	pool     *pilgrim.WorkerPool
	overlays *pilgrim.OverlayCache

	// Write replays go to a second WAL-backed registry behind the timing
	// decorator (replaying on the served one would double its epochs) and
	// to a bare timeline for the platform layer.
	shadowReg *pilgrim.Registry
	storage   *timedStorage
	timeline  *platform.Timeline

	sys  *flow.System
	cnst []*flow.Constraint

	counts layerCounts
}

// layerCounts are the work counts recorded at the layer boundaries.
type layerCounts struct {
	bytesOut, bytesIn   int64 // wire: request bytes sent, answer bytes received
	mutations           int
	reuse, fork, cold   int
	baseGroups          int
	derivedCells        int
	resharings, touched int
	routes              int
	epochsAppended      int
	solves, flowTouched int
	epochsMinted        int
}

func newReplayer(tr *tracer, lv *live) *replayer {
	return &replayer{
		tr: tr, reg: lv.registry, cfg: lv.entry.Config,
		cache:    pilgrim.NewForecastCache(pilgrim.DefaultForecastCacheSize),
		pool:     pilgrim.NewWorkerPool(pilgrim.DefaultForecastWorkers),
		overlays: pilgrim.NewOverlayCache(pilgrim.DefaultOverlayCacheSize),
		sys:      flow.NewSystem(),
		cnst:     make([]*flow.Constraint, lv.entry.Platform.Snapshot().NumLinks()<<2),
	}
}

// simCell is one simulation an op ran: the epoch it ran on, its canonical
// transfers, what it answered, and how many resharings its engine did.
type simCell struct {
	snap       *platform.Snapshot
	results    []sim.TransferResult
	resharings int
}

// opReplay is the replay state of one op across its layers.
type opReplay struct {
	op     *tracedOp
	ot     opTrace
	spanID [numLayers]int
	err    error

	transfers []sim.Transfer // canonical order, when the op simulated
	cells     []simCell
	routes    []*platform.CompiledRoute
	passes    int // route-resolution passes the op made
}

// timed records one replayed span of layer l under the op's span of
// layer parent.
func (rp *replayer) timed(st *opReplay, l, parent layerID, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	st.ot.dur[l] += end.Sub(start)
	st.ot.entered[l] = true
	st.spanID[l] = rp.tr.add(layerNames[l], st.spanID[parent], st.op.r.n, start, end)
}

// replayAll times every layer below pilgrim.server for the answered ops
// and returns their per-layer traces; an op whose replay failed carries
// the error.
func (rp *replayer) replayAll(ops []tracedOp) []opReplay {
	states := make([]opReplay, len(ops))
	for i := range ops {
		st := &states[i]
		st.op = &ops[i]
		st.ot.dur[lWire], st.ot.entered[lWire] = ops[i].r.lat, true
		st.ot.dur[lServer], st.ot.entered[lServer] = ops[i].serverDur, true
		st.spanID[lServer] = ops[i].serverID
	}
	for i := range states {
		st := &states[i]
		for _, layer := range []func(*opReplay) error{rp.underServer, rp.underThat, rp.routes, rp.sharing} {
			if st.err = layer(st); st.err != nil {
				break
			}
		}
	}
	return states
}

// underServer is the first step: the layer the handler calls into —
// ForecastCache.PredictCtx, Evaluator.EvaluateCtx or
// Registry.ObserveLinkState (with the store bracketed inside it).
func (rp *replayer) underServer(st *opReplay) error {
	r, entry := &st.op.r, st.op.entry
	var err error
	switch r.o.kind {
	case opPredict:
		before := rp.cache.Stats()
		rp.timed(st, lCache, lServer, func() {
			_, err = rp.cache.PredictCtx(context.Background(), platformName, entry, r.o.transfers, nil)
		})
		if err == nil && rp.cache.Stats().Misses != before.Misses {
			// A miss: the cache simulated the canonical (sorted) request.
			st.transfers = canonicalTransfers(r.o.transfers)
		}
	case opEvaluate:
		// As Server.evaluator() assembles it.
		ev := &pilgrim.Evaluator{
			Platforms: rp.reg, Cache: rp.cache, Pool: rp.pool, Overlays: rp.overlays,
			MaxScenarios: pilgrim.DefaultMaxScenarios, MaxCells: pilgrim.DefaultMaxEvaluateCells,
		}
		var resp *pilgrim.EvaluateResponse
		rp.timed(st, lEvaluate, lServer, func() {
			resp, err = ev.EvaluateCtx(context.Background(), platformName, *r.o.eval)
		})
		if err != nil {
			return err
		}
		s := resp.Stats
		if s.ForkReused != gridReuse || s.ForkRuns != gridFork || s.ForkCold != gridCold {
			return fmt.Errorf("evaluate replay tiers %d/%d/%d, want %d/%d/%d",
				s.ForkReused, s.ForkRuns, s.ForkCold, gridReuse, gridFork, gridCold)
		}
		rp.counts.reuse += s.ForkReused
		rp.counts.fork += s.ForkRuns
		rp.counts.cold += s.ForkCold
		rp.counts.baseGroups += s.BaseGroups
		rp.counts.derivedCells += gridDerived
		st.transfers = canonicalTransfers(r.o.eval.Queries[0].Transfers)
	case opUpdate:
		rp.timed(st, lRegistry, lServer, func() {
			_, err = rp.shadowReg.ObserveLinkState(platformName, r.writeTime, writeSource, r.o.updates)
		})
		if err != nil {
			return err
		}
		rp.counts.epochsMinted++
		// The decorator bracketed the registry's Append inside the span.
		rp.storage.mu.Lock()
		start, end := rp.storage.lastStart, rp.storage.lastEnd
		rp.storage.mu.Unlock()
		st.ot.dur[lStore], st.ot.entered[lStore] = end.Sub(start), true
		st.spanID[lStore] = rp.tr.add(layerNames[lStore], st.spanID[lRegistry], r.n, start, end)
	}
	return err
}

// canonicalTransfers is the request in the order ForecastCache and the
// evaluate layer simulate it in.
func canonicalTransfers(transfers []pilgrim.TransferRequest) []sim.Transfer {
	out := make([]sim.Transfer, len(transfers))
	for pos, i := range canonicalOrder(transfers) {
		t := transfers[i]
		out[pos] = sim.Transfer{Src: t.Src, Dst: t.Dst, Size: t.Size}
	}
	return out
}

// underThat is the second step: what the first step's layer calls into —
// sim under the cache; scenario and sim under evaluate; the timeline
// (platform) under the registry.
func (rp *replayer) underThat(st *opReplay) error {
	r, entry := &st.op.r, st.op.entry
	var err error
	switch {
	case r.o.kind == opPredict && st.transfers != nil:
		snap := entry.Snapshot
		cell := simCell{snap: snap}
		rp.timed(st, lSim, lCache, func() {
			s := sim.NewPooledSnapshotSimulation(snap, rp.cfg)
			for _, t := range st.transfers {
				s.AddTransfer(t.Src, t.Dst, t.Size)
			}
			cell.results, err = s.Run()
			sharing := s.Engine().SharingStats()
			cell.resharings = sharing.Resharings
			rp.counts.touched += sharing.VariablesTouched
			s.Release()
		})
		st.cells, st.passes = []simCell{cell}, 1
	case r.o.kind == opEvaluate:
		base := entry.Snapshot
		var members []*platform.Snapshot // the derived epochs, in scenario order
		rp.timed(st, lScenario, lEvaluate, func() {
			for i := range r.o.eval.Scenarios {
				var snap *platform.Snapshot
				if snap, _, err = r.o.eval.Scenarios[i].Compile(base, nil); err != nil {
					return
				}
				if snap != base {
					members = append(members, snap)
				}
				rp.counts.mutations += len(r.o.eval.Scenarios[i].Mutations)
			}
		})
		if err != nil {
			return err
		}
		query := sim.PlanQuery{Transfers: st.transfers}
		var baseOut []sim.PlanResult
		var memberOut [][]sim.PlanResult
		var diff sim.DiffStats
		rp.timed(st, lSim, lEvaluate, func() {
			baseOut, memberOut, diff = sim.RunPlanDiff(base, rp.cfg, []sim.PlanQuery{query}, members)
		})
		if diff.Reused != gridReuse || diff.Forked != gridFork || diff.Cold != gridCold {
			return fmt.Errorf("RunPlanDiff tiers %d/%d/%d, want %d/%d/%d",
				diff.Reused, diff.Forked, diff.Cold, gridReuse, gridFork, gridCold)
		}
		// Routes are resolved for the footprint, for the base set-up, and
		// again by every cold cell's set-up; forks restore them from the
		// checkpoint.
		st.passes = 2 + diff.Cold
		// Every simulated cell solved its own sharing problem: the base
		// run and each member whose answer is not the base's (a reused
		// cell shares the base's result slice).
		if baseOut[0].Err != nil {
			return baseOut[0].Err
		}
		st.cells = []simCell{{snap: base, results: baseOut[0].Results}}
		for mi, m := range members {
			out := memberOut[mi][0]
			if out.Err != nil {
				return out.Err
			}
			if &out.Results[0] != &baseOut[0].Results[0] {
				st.cells = append(st.cells, simCell{snap: m, results: out.Results})
			}
		}
		if len(st.cells) != 1+gridFork+gridCold {
			return fmt.Errorf("%d simulated grid cells, want %d", len(st.cells), 1+gridFork+gridCold)
		}
		// RunPlanDiff does not expose its engines; an untimed run of each
		// cell on an engine of its own gives the resharing count to hold
		// the flow replay to (the fork tests pin forked and cold runs
		// bit-identical).
		for i := range st.cells {
			s := sim.NewPooledSnapshotSimulation(st.cells[i].snap, rp.cfg)
			for _, t := range st.transfers {
				s.AddTransfer(t.Src, t.Dst, t.Size)
			}
			if _, err := s.Run(); err != nil {
				s.Release()
				return err
			}
			sharing := s.Engine().SharingStats()
			s.Release()
			st.cells[i].resharings = sharing.Resharings
			rp.counts.touched += sharing.VariablesTouched
		}
	case r.o.kind == opUpdate:
		rp.timed(st, lPlatform, lRegistry, func() {
			_, err = rp.timeline.Append(r.writeTime, writeSource, r.o.updates)
		})
		rp.counts.epochsAppended++
	}
	for _, c := range st.cells {
		rp.counts.resharings += c.resharings
	}
	return err
}

// routes is the third step: Snapshot.Route per transfer, as many times
// over as the op's simulations resolved them.
func (rp *replayer) routes(st *opReplay) error {
	if len(st.cells) == 0 {
		return nil
	}
	snap := st.cells[0].snap
	st.routes = make([]*platform.CompiledRoute, len(st.transfers))
	var err error
	rp.timed(st, lPlatform, lSim, func() {
		for p := 0; p < st.passes; p++ {
			for i, t := range st.transfers {
				if st.routes[i], err = snap.Route(t.Src, t.Dst); err != nil {
					return
				}
			}
		}
	})
	rp.counts.routes += st.passes * len(st.transfers)
	return err
}

// sharing is the last step: each simulated cell's max-min problem on the
// harness's own flow.System.
func (rp *replayer) sharing(st *opReplay) error {
	for _, cell := range st.cells {
		if err := rp.replayFlow(st, cell); err != nil {
			return err
		}
	}
	return nil
}

// flowEvent is one membership change of the sharing problem.
type flowEvent struct {
	at       float64
	transfer int
	activate bool
}

// flowPlan is one simulation's sharing problem, lowered outside the timed
// section: per transfer its variable parameters and constraints, and the
// activation/completion events in engine order.
type flowPlan struct {
	weight, bound []float64
	refs          [][]platform.LinkRef
	caps          [][]float64
	events        []flowEvent
}

// lowerFlow rebuilds what the engine feeds the solver, from public
// accessors: a transfer activates when its latency phase ends
// (LatencyFactor × route latency), carries weight 1/RTT and the TCP window
// bound, crosses one constraint per shared link (per direction when full
// duplex) at BandwidthFactor × the epoch's bandwidth, is bounded but not
// constrained by fatpipes, and leaves at its reported completion date.
func lowerFlow(snap *platform.Snapshot, cfg sim.Config, routes []*platform.CompiledRoute, results []sim.TransferResult) flowPlan {
	n := len(routes)
	p := flowPlan{
		weight: make([]float64, n), bound: make([]float64, n),
		refs: make([][]platform.LinkRef, n), caps: make([][]float64, n),
		events: make([]flowEvent, 0, 2*n),
	}
	for i, route := range routes {
		lat := snap.RouteLatency(route)
		rtt := 2 * cfg.LatencyFactor * lat
		if rtt < cfg.MinRTT {
			rtt = cfg.MinRTT
		}
		p.weight[i] = 1 / rtt
		if cfg.TCPGamma > 0 {
			brtt := 2 * lat
			if cfg.GammaUsesLatencyFactor {
				brtt = 2 * cfg.LatencyFactor * lat
			}
			if brtt < cfg.MinRTT {
				brtt = cfg.MinRTT
			}
			p.bound[i] = cfg.TCPGamma / (2 * brtt)
		}
		for _, ref := range route.Refs {
			li := ref.LinkIndex()
			capacity := snap.LinkBandwidth(li) * cfg.BandwidthFactor
			switch snap.LinkPolicy(li) {
			case platform.Fatpipe:
				if p.bound[i] == 0 || capacity < p.bound[i] {
					p.bound[i] = capacity
				}
				continue
			case platform.Shared:
				ref = platform.MakeLinkRef(li, platform.None)
			case platform.FullDuplex:
				if ref.Direction() == platform.None {
					ref = platform.MakeLinkRef(li, platform.Up)
				}
			}
			p.refs[i] = append(p.refs[i], ref)
			p.caps[i] = append(p.caps[i], capacity)
		}
		p.events = append(p.events,
			flowEvent{at: cfg.LatencyFactor * lat, transfer: i, activate: true},
			flowEvent{at: results[i].Completion, transfer: i})
	}
	sort.SliceStable(p.events, func(a, b int) bool { return p.events[a].at < p.events[b].at })
	return p
}

// replayFlow times one cell's sharing problem on the harness's own
// flow.System (Reset between replays, as the pooled engine does): the
// engine re-solves once per event date, so the replay must do exactly the
// engine's number of solves, or it is not doing the work the layer above
// did.
func (rp *replayer) replayFlow(st *opReplay, cell simCell) error {
	p := lowerFlow(cell.snap, rp.cfg, st.routes, cell.results)
	vars := make([]*flow.Variable, len(st.routes))
	var err error
	rp.timed(st, lFlow, lSim, func() {
		rp.sys.Reset()
		clear(rp.cnst)
		// The engine's first step re-solves before anything is active
		// (scheduling marks the sharing dirty).
		if err = rp.sys.Solve(); err != nil {
			return
		}
		for i := 0; i < len(p.events); {
			at := p.events[i].at
			for ; i < len(p.events) && p.events[i].at == at; i++ {
				ev := p.events[i]
				if !ev.activate {
					rp.sys.RemoveVariable(vars[ev.transfer])
					continue
				}
				v := rp.sys.NewVariable("", p.weight[ev.transfer], p.bound[ev.transfer])
				for k, ref := range p.refs[ev.transfer] {
					c := rp.cnst[ref]
					if c == nil {
						c = rp.sys.NewConstraint("", p.caps[ev.transfer][k])
						rp.cnst[ref] = c
					}
					_ = rp.sys.Attach(v, c) // a link crossed twice attaches once, as in the engine
				}
				vars[ev.transfer] = v
			}
			if err = rp.sys.Solve(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	rp.counts.solves += rp.sys.Solves()
	rp.counts.flowTouched += rp.sys.TotalTouched()
	if rp.sys.Solves() != cell.resharings {
		return fmt.Errorf("flow replay did %d solves, the engine %d resharings", rp.sys.Solves(), cell.resharings)
	}
	return nil
}
