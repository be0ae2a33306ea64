package pilgrim

import (
	"context"
	"fmt"
	"math"
	"sync"

	"pilgrim/internal/keyed"
	"pilgrim/internal/platform"
	"pilgrim/internal/scenario"
	"pilgrim/internal/sim"
	"pilgrim/internal/workflow"
)

// This file implements batched what-if evaluation: one request carries N
// scenarios (composable epoch mutations, internal/scenario) × M queries
// (predict_transfers / select_fastest / predict_workflow bodies), and the
// whole cross-product is answered in one round trip. The machinery
// exploits three layers built by earlier PRs:
//
//   - each scenario compiles to one copy-on-write epoch
//     (Snapshot.ApplyOverlay — O(changed resources), one epoch id), and
//     scenarios describing the same hypothetical network share that epoch
//     through the OverlayCache;
//   - scenarios sharing an (epoch, background) picture form one *group*,
//     groups deriving from one base epoch form one *supergroup*, and
//     supergroups fan out across the WorkerPool; one runner
//     (runSuperGroup) answers every cell, by base-answer reuse or by
//     running the cell's query on one pooled engine per derived epoch
//     (sim.Engine.RunQuery) straight into the answer the cache keeps;
//   - every sub-simulation — a transfer set, a hypothesis — is a
//     canonical (epoch, config, query) triple deduplicated through the
//     ForecastCache, so overlapping scenarios and repeated requests pay
//     for each distinct simulation once.

// Default evaluate limits (the pilgrimd -max-scenarios and
// -max-evaluate-fanout flags).
const (
	DefaultMaxScenarios     = 64
	DefaultMaxEvaluateCells = 1024
)

// Query kinds accepted by evaluate.
const (
	QueryPredictTransfers = "predict_transfers"
	QuerySelectFastest    = "select_fastest"
	QueryPredictWorkflow  = "predict_workflow"
)

// EvalQuery is one question asked of every scenario in the batch.
type EvalQuery struct {
	// Kind selects the query semantics: predict_transfers (Transfers,
	// optionally Background), select_fastest (Hypotheses), or
	// predict_workflow (Workflow).
	Kind string `json:"kind"`
	// Transfers is the predict_transfers workload.
	Transfers []TransferRequest `json:"transfers,omitempty"`
	// Background adds per-query cross-traffic, on top of whatever the
	// scenario injects.
	Background [][2]string `json:"bg,omitempty"`
	// Hypotheses is the select_fastest alternative set.
	Hypotheses []Hypothesis `json:"hypotheses,omitempty"`
	// Workflow is the predict_workflow DAG.
	Workflow *workflow.Workflow `json:"workflow,omitempty"`
}

// Validate checks the shape of query i of an evaluate request: the
// checks the evaluate endpoint answers 400 for, which campaign files
// share.
func (q *EvalQuery) Validate(i int) error {
	switch q.Kind {
	case QueryPredictTransfers:
		if len(q.Transfers) == 0 {
			return fmt.Errorf("pilgrim: query %d: predict_transfers needs transfers", i)
		}
		for _, t := range q.Transfers {
			if !validTransfer(t) {
				return fmt.Errorf("pilgrim: query %d: invalid transfer %+v", i, t)
			}
		}
	case QuerySelectFastest:
		if len(q.Hypotheses) == 0 {
			return fmt.Errorf("pilgrim: query %d: select_fastest needs hypotheses", i)
		}
		for hi, h := range q.Hypotheses {
			if len(h.Transfers) == 0 {
				return fmt.Errorf("pilgrim: query %d: hypothesis %d is empty", i, hi)
			}
			for _, t := range h.Transfers {
				if !validTransfer(t) {
					return fmt.Errorf("pilgrim: query %d: hypothesis %d: invalid transfer %+v", i, hi, t)
				}
			}
		}
	case QueryPredictWorkflow:
		if q.Workflow == nil {
			return fmt.Errorf("pilgrim: query %d: predict_workflow needs a workflow", i)
		}
		if _, err := q.Workflow.Validate(); err != nil {
			return fmt.Errorf("pilgrim: query %d: %w", i, err)
		}
	default:
		return fmt.Errorf("pilgrim: query %d: unknown kind %q", i, q.Kind)
	}
	return nil
}

// validTransfer reports whether t names both ends and a finite, positive
// size (a NaN size fails the comparison).
func validTransfer(t TransferRequest) bool {
	return t.Src != "" && t.Dst != "" && t.Size > 0 && !math.IsInf(t.Size, 0)
}

// EvaluateRequest is the evaluate body: N scenarios × M queries. An empty
// scenario list evaluates one implicit baseline scenario (no mutations),
// making evaluate a pure batch-query API.
type EvaluateRequest struct {
	// At evaluates every scenario against the platform's epoch at this
	// Unix time (same semantics as the at= query parameter; 0 = newest
	// observation). A scenario's own at_time mutation overrides it.
	At        int64               `json:"at,omitempty"`
	Scenarios []scenario.Scenario `json:"scenarios,omitempty"`
	Queries   []EvalQuery         `json:"queries"`
}

// EvalResult is one cell of the answer grid: exactly one of the result
// fields is set, or Error when this scenario cannot answer this query
// (e.g. a transfer routed over a failed link). A cell error never fails
// the batch — failure sweeps want the other cells.
type EvalResult struct {
	Error       string             `json:"error,omitempty"`
	Predictions []Prediction       `json:"predictions,omitempty"`
	Best        *int               `json:"best,omitempty"`
	Hypotheses  []HypothesisResult `json:"hypotheses,omitempty"`
	Forecast    *workflow.Forecast `json:"forecast,omitempty"`
}

// ScenarioResult is one scenario's row: the epoch it evaluated against,
// its provenance (the canonical mutation list recorded on the epoch), and
// one EvalResult per request query. Error is set when the scenario itself
// failed to compile (unknown resources, beyond-horizon at_time); its
// Results are then absent.
type ScenarioResult struct {
	Name            string       `json:"name,omitempty"`
	Epoch           uint64       `json:"epoch,omitempty"`
	Provenance      string       `json:"provenance,omitempty"`
	BackgroundFlows int          `json:"background_flows,omitempty"`
	Error           string       `json:"error,omitempty"`
	Results         []EvalResult `json:"results,omitempty"`
}

// EvaluateStats is the per-request dedup accounting.
type EvaluateStats struct {
	// Scenarios and Queries are the request's grid dimensions; Cells
	// their product.
	Scenarios int `json:"scenarios"`
	Queries   int `json:"queries"`
	Cells     int `json:"cells"`
	// Groups is the number of distinct (epoch, background) pictures the
	// scenarios collapsed to — the unit of parallel fan-out, each running
	// its queries on one pooled engine.
	Groups int `json:"groups"`
	// OverlaysReused counts scenarios whose derived epoch came from the
	// overlay cache (or was shared within the request) instead of a fresh
	// ApplyOverlay.
	OverlaysReused int `json:"overlays_reused"`
	// Simulations counts sub-simulations actually executed (base runs,
	// derived-epoch runs and workflow forecasts alike); CacheHits
	// counts sub-simulations answered from the forecast cache.
	Simulations int `json:"simulations"`
	CacheHits   int `json:"cache_hits"`
	// BaseGroups is the number of distinct (base epoch, background)
	// supergroups the differential evaluator collapsed the groups into —
	// the unit of warm-start sharing. Zero when differential evaluation is
	// disabled.
	BaseGroups int `json:"base_groups,omitempty"`
	// ForkReused counts derived-epoch cells answered by provably
	// bit-identical reuse of the base answer (no simulation). ForkRuns and
	// ForkCold count the derived cells that ran on their own epoch: those
	// whose footprint crosses bandwidth changes only, and those it crosses a
	// latency or availability change. Both cost one run; the fork_ names
	// are kept for clients.
	ForkReused int `json:"fork_reused,omitempty"`
	ForkRuns   int `json:"fork_runs,omitempty"`
	ForkCold   int `json:"fork_cold,omitempty"`
}

// EvaluateResponse is the evaluate answer: one row per scenario, in
// request order, plus the dedup accounting.
type EvaluateResponse struct {
	Platform  string           `json:"platform"`
	Scenarios []ScenarioResult `json:"scenarios"`
	Stats     EvaluateStats    `json:"stats"`
}

// OverlayCache memoizes scenario-derived epochs across requests, keyed by
// (base epoch, canonical overlay): a failure sweep polled by a scheduler
// resolves to the same derived epochs every time, which keeps the
// forecast cache's epoch-keyed entries warm between requests. Bounded
// LRU; evicted snapshots become collectable at once — the engine pool is
// keyed by topology and parks engines without a snapshot, so it never pins
// an epoch. Concurrent requests deriving the same epoch share one
// derivation (the keyed flight table), and with it one epoch id, so their
// sub-simulations key alike and run once.
type OverlayCache struct {
	mu      sync.Mutex
	derived *keyed.Cache[overlayKey, *platform.Snapshot]
}

// overlayKey is one derived epoch: a base epoch under a canonical overlay
// (scenario.Resolved.Key).
type overlayKey struct {
	base    uint64
	overlay string
}

// DefaultOverlayCacheSize is the overlay cache capacity NewServer
// installs.
const DefaultOverlayCacheSize = 128

// NewOverlayCache returns an overlay cache holding up to capacity derived
// epochs (capacity <= 0 disables reuse across requests: only concurrent
// derivations of one epoch are shared).
func NewOverlayCache(capacity int) *OverlayCache {
	oc := &OverlayCache{}
	oc.derived = keyed.New[overlayKey, *platform.Snapshot](&oc.mu, capacity, nil)
	return oc
}

// derive returns the epoch resolved derives from base, and whether it was
// reused — cached, or derived by a concurrent request this one waited for
// — rather than derived here. The wait is bounded by ctx; a derivation
// waits on nothing, so it cannot close a wait cycle.
func (oc *OverlayCache) derive(ctx context.Context, base *platform.Snapshot, resolved *scenario.Resolved) (snap *platform.Snapshot, reused bool, err error) {
	if oc == nil {
		snap, err = resolved.Apply(base)
		return snap, false, err
	}
	reused = true
	snap, err = oc.derived.Do(ctx, overlayKey{base.Epoch(), resolved.Key()}, func() (*platform.Snapshot, error) {
		reused = false
		return resolved.Apply(base)
	})
	return snap, reused, err
}

// OverlayStats is the overlay cache accounting surfaced by cache_stats.
// Hits counts derivations shared with a concurrent request too.
type OverlayStats struct {
	Hits     uint64 `json:"hits" metric:"pilgrim_overlay_cache_hits_total" help:"Scenario-overlay cache hits (derived epochs reused)."`
	Misses   uint64 `json:"misses" metric:"pilgrim_overlay_cache_misses_total" help:"Scenario-overlay cache misses (fresh ApplyOverlay)."`
	Size     int    `json:"size" metric:"pilgrim_overlay_cache_entries" help:"Derived epochs currently cached."`
	Capacity int    `json:"capacity" metric:"-"`
}

// Stats returns a snapshot of the overlay cache counters.
func (oc *OverlayCache) Stats() OverlayStats {
	if oc == nil {
		return OverlayStats{}
	}
	oc.mu.Lock()
	defer oc.mu.Unlock()
	n := oc.derived.Counts()
	return OverlayStats{Hits: n.Hits + n.Coalesced, Misses: n.Misses, Size: oc.derived.Len(), Capacity: oc.derived.Capacity()}
}

// Evaluator bundles the moving parts of batched evaluation. The server
// assembles one per request from its live configuration; embedders (the
// examples, the benchmarks) hold one directly.
type Evaluator struct {
	Platforms *Registry
	Cache     *ForecastCache
	Pool      *WorkerPool
	// Overlays may be nil (no cross-request epoch reuse).
	Overlays *OverlayCache
	// MaxScenarios and MaxCells bound a request (<= 0 selects the
	// defaults).
	MaxScenarios int
	MaxCells     int
	// DisableDifferential makes every group its own base, so nothing is
	// shared and every sub-simulation runs cold. It is the oracle of the
	// differential property tests and benchmarks, not a production setting:
	// results are bit-identical either way.
	DisableDifferential bool
}

// evalGroup is one distinct (epoch, background) picture: the scenarios
// that collapsed to it and the per-query results computed once for all of
// them.
type evalGroup struct {
	entry     PlatformEntry        // pinned to the group's derived epoch
	base      PlatformEntry        // pinned to the epoch the scenario derived from
	delta     *platform.EpochDelta // derived-vs-base mutation classes (empty when entry is the base)
	bg        [][2]string          // canonical scenario background
	scenarios []int                // request indices sharing this group
	results   []EvalResult         // one per request query
	sims      int                  // sub-simulations this group executed
	hits      int                  // sub-simulations answered by the cache
	reused    int                  // derived cells answered by base-result reuse
	forked    int                  // derived cells run, footprint crossing bandwidth changes only
	cold      int                  // derived cells run, footprint crossing a latency/availability change
	rerun     int                  // transfers simulated by the forked and cold cells
	copied    int                  // transfers of those cells that kept the base answer's prediction
}

// Evaluate answers one N×M batch for the named platform. Request-shape
// problems (unknown platform, no queries, limits exceeded) fail the call;
// per-scenario and per-cell problems are reported inside the response.
func (ev *Evaluator) Evaluate(name string, req EvaluateRequest) (*EvaluateResponse, error) {
	return ev.EvaluateCtx(context.Background(), name, req)
}

// EvaluateCtx is Evaluate under a request context: scenario resolution
// checks ctx between scenarios, and the group fan-out stops dispatching
// once ctx is done (running groups finish — a simulation is not
// interruptible). An expired ctx fails the call; the HTTP layer maps
// context.DeadlineExceeded to 504.
func (ev *Evaluator) EvaluateCtx(ctx context.Context, name string, req EvaluateRequest) (*EvaluateResponse, error) {
	reg := ev.Platforms
	if reg == nil {
		return nil, fmt.Errorf("pilgrim: evaluator has no registry")
	}
	if _, ok := reg.Get(name); !ok {
		return nil, fmt.Errorf("pilgrim: unknown platform %q", name)
	}
	maxScen := ev.MaxScenarios
	if maxScen <= 0 {
		maxScen = DefaultMaxScenarios
	}
	maxCells := ev.MaxCells
	if maxCells <= 0 {
		maxCells = DefaultMaxEvaluateCells
	}
	scenarios := req.Scenarios
	if len(scenarios) == 0 {
		scenarios = []scenario.Scenario{{Name: "baseline"}}
	}
	if len(scenarios) > maxScen {
		return nil, fmt.Errorf("pilgrim: %d scenarios exceed the limit of %d", len(scenarios), maxScen)
	}
	if len(req.Queries) == 0 {
		return nil, fmt.Errorf("pilgrim: at least one query required")
	}
	if cells := len(scenarios) * len(req.Queries); cells > maxCells {
		return nil, fmt.Errorf("pilgrim: %d scenario×query cells exceed the fan-out limit of %d",
			cells, maxCells)
	}
	for i := range req.Queries {
		if err := req.Queries[i].Validate(i); err != nil {
			return nil, err
		}
	}

	resp := &EvaluateResponse{
		Platform:  name,
		Scenarios: make([]ScenarioResult, len(scenarios)),
		Stats: EvaluateStats{
			Scenarios: len(scenarios),
			Queries:   len(req.Queries),
			Cells:     len(scenarios) * len(req.Queries),
		},
	}

	// Phase 1 (serial): resolve every scenario to its derived epoch and
	// collapse equal (epoch, background) pictures into groups.
	groups := make(map[groupKey]*evalGroup)
	var order []*evalGroup
	for si := range scenarios {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc := &scenarios[si]
		row := &resp.Scenarios[si]
		row.Name = sc.Name

		entry, err := ev.scenarioBase(name, req.At, sc)
		if err != nil {
			row.Error = err.Error()
			continue
		}
		var bgEst [][2]string
		if sc.WantsBgEstimate() {
			bgEst, _, _ = reg.BackgroundEstimate(name)
		}
		base := entry.snapshot()
		resolved, err := sc.Resolve(base, bgEst)
		if err != nil {
			row.Error = err.Error()
			continue
		}
		snap := base
		if !resolved.Empty() {
			var reused bool
			snap, reused, err = ev.Overlays.derive(ctx, base, resolved)
			if err != nil { // an expired ctx fails the call at the next check
				row.Error = err.Error()
				continue
			}
			if reused {
				resp.Stats.OverlaysReused++
			}
		}
		entry.Snapshot = snap
		// A group's base is the epoch its scenario derived from — or, with
		// differential evaluation off, its own epoch: then no two groups
		// share a base and none has a delta to classify against.
		baseEntry, delta := entry, &platform.EpochDelta{}
		if snap != base && !ev.DisableDifferential {
			baseEntry.Snapshot = base
			// O(mutations), no epoch walk: the resolved overlay knows
			// exactly which resources it changed away from base values.
			delta = resolved.Delta(base)
		}
		row.Epoch = snap.Epoch()
		row.Provenance = snap.Provenance()
		row.BackgroundFlows = len(resolved.Background)

		bg := canonicalBackground(resolved.Background)
		gk := groupKey{snap.Epoch(), queryKey(nil, nil, bg)}
		g := groups[gk]
		if g == nil {
			g = &evalGroup{entry: entry, base: baseEntry, delta: delta, bg: bg}
			groups[gk] = g
			order = append(order, g)
		}
		g.scenarios = append(g.scenarios, si)
	}
	resp.Stats.Groups = len(order)

	// Phase 2 (parallel): groups deriving from one base epoch under one
	// background picture share their base answers, so the
	// supergroup is the unit of fan-out, evaluated serially inside one pool
	// slot. Queries are canonicalized once here — per group only the
	// picture half of each cache key changes.
	templates := buildSubTemplates(req.Queries)
	pool := ev.Pool
	if pool == nil {
		pool = defaultPool()
	}
	pool.evalCalls.Add(1)
	pool.evalCells.Add(uint64(resp.Stats.Cells))
	pool.evalRuns.Add(uint64(len(order)))
	supers := buildSuperGroups(order)
	if !ev.DisableDifferential {
		resp.Stats.BaseGroups = len(supers)
	}
	errs := make([]error, len(supers))
	if err := pool.RunCtx(ctx, len(supers), func(si int) {
		errs[si] = ev.runSuperGroup(ctx, name, supers[si], req.Queries, templates)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 3 (serial): fan group results back into the scenario rows.
	var rerun, copied int
	for _, sg := range supers {
		resp.Stats.Simulations += sg.baseSims
	}
	for _, g := range order {
		resp.Stats.Simulations += g.sims
		resp.Stats.CacheHits += g.hits
		resp.Stats.ForkReused += g.reused
		resp.Stats.ForkRuns += g.forked
		resp.Stats.ForkCold += g.cold
		rerun += g.rerun
		copied += g.copied
		for _, si := range g.scenarios {
			resp.Scenarios[si].Results = g.results
		}
	}
	pool.evalSims.Add(uint64(resp.Stats.Simulations))
	pool.evalForkReused.Add(uint64(resp.Stats.ForkReused))
	pool.evalForkRuns.Add(uint64(resp.Stats.ForkRuns))
	pool.evalForkCold.Add(uint64(resp.Stats.ForkCold))
	pool.evalRerun.Add(uint64(rerun))
	pool.evalCopied.Add(uint64(copied))
	return resp, nil
}

// scenarioBase resolves the epoch a scenario starts from: its own at_time
// mutation, else the request-level at, else the newest observation.
func (ev *Evaluator) scenarioBase(name string, reqAt int64, sc *scenario.Scenario) (PlatformEntry, error) {
	at, ok := sc.At()
	if !ok {
		at = reqAt
	}
	if at == 0 {
		entry, found := ev.Platforms.Get(name)
		if !found {
			return PlatformEntry{}, fmt.Errorf("pilgrim: unknown platform %q", name)
		}
		return entry, nil
	}
	return ev.Platforms.GetAt(name, at)
}

// groupKey is one (epoch, canonical scenario background) picture; bg is the
// background half of a queryKey.
type groupKey struct {
	epoch uint64
	bg    string
}

// subTemplate is the group-independent canonical form of one
// sub-simulation: the transfer multiset sorted once, its query key spelled
// once, the sim-level transfer list ready to plan (read-only, shared across
// groups). Per group, the cache key is the group's picture plus that one
// query string.
type subTemplate struct {
	transfers []TransferRequest // as requested; order sorts them
	order     []int
	sims      []sim.Transfer
	query     string      // the key under no scenario background
	extraBg   [][2]string // per-query background (canonical)
}

// mergedBackground is the canonical union of a scenario's flows (already
// canonical) and a query's own.
func mergedBackground(scenarioBg, queryBg [][2]string) [][2]string {
	if len(queryBg) == 0 {
		return scenarioBg
	}
	return canonicalBackground(append(append([][2]string(nil), scenarioBg...), queryBg...))
}

// under returns the background the sub simulates with under a scenario
// background, and its query key there.
func (t *subTemplate) under(scenarioBg [][2]string) ([][2]string, string) {
	if len(scenarioBg) == 0 {
		return t.extraBg, t.query
	}
	bg := mergedBackground(scenarioBg, t.extraBg)
	return bg, queryKey(t.transfers, t.order, bg)
}

func newSubTemplate(transfers []TransferRequest, extraBg [][2]string) subTemplate {
	order := canonicalize(transfers)
	sims := make([]sim.Transfer, len(transfers))
	for pos, i := range order {
		sims[pos] = sim.Transfer{Src: transfers[i].Src, Dst: transfers[i].Dst, Size: transfers[i].Size}
	}
	extraBg = canonicalBackground(extraBg)
	return subTemplate{
		transfers: transfers,
		order:     order,
		sims:      sims,
		query:     queryKey(transfers, order, extraBg),
		extraBg:   extraBg,
	}
}

// buildSubTemplates canonicalizes every query's sub-simulations once per
// request (nil rows for workflow queries, which carry no transfer subs).
func buildSubTemplates(queries []EvalQuery) [][]subTemplate {
	out := make([][]subTemplate, len(queries))
	for qi := range queries {
		q := &queries[qi]
		switch q.Kind {
		case QueryPredictTransfers:
			out[qi] = []subTemplate{newSubTemplate(q.Transfers, q.Background)}
		case QuerySelectFastest:
			subs := make([]subTemplate, len(q.Hypotheses))
			for hi, h := range q.Hypotheses {
				subs[hi] = newSubTemplate(h.Transfers, q.Background)
			}
			out[qi] = subs
		}
	}
	return out
}

// workflowCells answers the group's predict_workflow cells. Workflows
// bypass the transfer cache but still share the group's engine-pool
// flavour and background picture (the scenario's flows plus any per-query
// ones).
func (g *evalGroup) workflowCells(queries []EvalQuery, results []EvalResult) {
	for qi := range queries {
		q := &queries[qi]
		if q.Kind != QueryPredictWorkflow {
			continue
		}
		f, err := workflow.PredictWithBackground(g.entry.snapshot(), g.entry.Config, q.Workflow, mergedBackground(g.bg, q.Background))
		g.sims++
		if err != nil {
			results[qi].Error = err.Error()
		} else {
			results[qi].Forecast = f
		}
	}
}

// requestOrder maps canonical answers back to request order, once per
// distinct (answer, permutation): cells that resolved to the same canonical
// slice — a supergroup's baseline and every member reusing its answer —
// share one read-only request-order copy, which the encoder recognises
// (hotEnc.predictions).
type requestOrder map[requestOrderKey][]Prediction

type requestOrderKey struct {
	canonical *Prediction // first element: cached answers are immutable
	tmpl      *subTemplate
}

func (ro requestOrder) of(canonical []Prediction, tmpl *subTemplate) []Prediction {
	if len(canonical) == 0 {
		return reorder(canonical, tmpl.order)
	}
	k := requestOrderKey{&canonical[0], tmpl}
	out, ok := ro[k]
	if !ok {
		out = reorder(canonical, tmpl.order)
		ro[k] = out
	}
	return out
}

// foldSubResults assembles the predict_transfers and select_fastest cells
// from one member's resolved canonical sub-answers: inst[qi][si] indexes the
// answer of the si'th sub-simulation of query qi. Workflow cells are
// untouched — they carry no transfer subs.
func foldSubResults(queries []EvalQuery, templates [][]subTemplate, inst [][]int, answers []memberSub, ordered requestOrder, results []EvalResult) {
	for qi := range queries {
		switch queries[qi].Kind {
		case QueryPredictTransfers:
			a := &answers[inst[qi][0]]
			if a.err != nil {
				results[qi].Error = a.err.Error()
				continue
			}
			results[qi].Predictions = ordered.of(a.preds, &templates[qi][0])
		case QuerySelectFastest:
			hyps := make([]HypothesisResult, len(templates[qi]))
			failed := false
			for hi := range templates[qi] {
				a := &answers[inst[qi][hi]]
				if a.err != nil {
					results[qi].Error = fmt.Sprintf("hypothesis %d: %v", hi, a.err)
					failed = true
					break
				}
				hyps[hi] = hypothesisResult(hi, ordered.of(a.preds, &templates[qi][hi]))
			}
			if failed {
				continue
			}
			best := fastest(hyps)
			results[qi].Best = &best
			results[qi].Hypotheses = hyps
		}
	}
}

// superGroup is the unit of fan-out: every group that derives from one base
// epoch under one scenario-background picture. The member epochs differ
// from that base by small overlays, so the supergroup answers its members
// against one set of base runs: cells whose query footprint misses a
// member's delta reuse the base answer outright, and the rest run on the
// member's own epoch — all bit-identical to evaluating each member in
// isolation (see internal/sim/diff.go for the soundness argument). A
// supergroup of one group on its own base epoch has no base run to share:
// it is all cold.
type superGroup struct {
	base     PlatformEntry
	bg       [][2]string
	members  []*evalGroup
	baseSims int // base-epoch sub-simulations run on behalf of the members
}

func buildSuperGroups(order []*evalGroup) []*superGroup {
	index := make(map[groupKey]*superGroup)
	var supers []*superGroup
	for _, g := range order {
		k := groupKey{g.base.snapshot().Epoch(), queryKey(nil, nil, g.bg)}
		sg := index[k]
		if sg == nil {
			sg = &superGroup{base: g.base, bg: g.bg}
			index[k] = sg
			supers = append(supers, sg)
		}
		sg.members = append(sg.members, g)
	}
	return supers
}

// diffSub is one distinct sub-simulation of a supergroup. Members share
// one background picture, so every member asks the sub with identical
// transfers and merged background: one base answer serves the whole member
// set. Its cache key under any epoch is that epoch's picture plus query.
type diffSub struct {
	tmpl  *subTemplate
	query string
	plan  sim.PlanQuery
	fp    *sim.Footprint // lazy: only computed when some member misses

	// The base-answer phase: whether some member reuses the base answer,
	// that answer, and the base-key flight led.
	needBase bool
	base     subAnswer
	baseLed  *keyed.Flight[cacheEntry]
}

// footprint resolves (once) the sub's resource footprint and sharing
// structure on the base epoch; routes are topology-level, so it is valid
// for every member.
func (ds *diffSub) footprint(base *platform.Snapshot, cfg sim.Config) *sim.Footprint {
	if ds.fp == nil {
		f := sim.PlanFootprint(base, cfg, &ds.plan)
		ds.fp = &f
	}
	return ds.fp
}

// subAnswer is one resolved sub-simulation: canonical predictions or the
// simulation's error.
type subAnswer struct {
	preds []Prediction
	err   error
	have  bool
}

// memberSub is one member's state for one diffSub: its answer once
// resolved, and how it gets there when the member's cache probe missed.
type memberSub struct {
	subAnswer
	need     bool                      // missed the cache: this request resolves it
	class    sim.DeltaClass            // the tier that resolves it (need only)
	led      *keyed.Flight[cacheEntry] // the flight this member leads for it, if any
	followed *keyed.Flight[cacheEntry] // the flight another request owns for it, if any
}

// runSuperGroup is the one evaluate runner: it answers every member group
// of one base epoch. Per member it probes the member's own cache keys,
// classifies the subs that missed (the only place a cell's tier is chosen),
// runs the base subs some member reuses, then resolves each member's subs by
// base-answer reuse or in one batched run on its epoch. All counters
// live on the member groups except baseSims, which counts base-epoch work
// attributable to the supergroup as a whole.
// Member-key misses lead coalescing flights (completed as each answer
// lands) and keys another request is already simulating are followed —
// but only after every led flight has published, per the deadlock rule of
// internal/keyed. A non-nil error is ctx expiring mid-wait.
func (ev *Evaluator) runSuperGroup(ctx context.Context, name string, sg *superGroup, queries []EvalQuery, templates [][]subTemplate) error {
	base := sg.base.snapshot()
	// A lone member sitting on its own base epoch has nothing to share: a
	// base run would be its own answer under its own key.
	alone := len(sg.members) == 1 && sg.members[0].delta.Empty()

	// Collect the distinct sub-simulations of the member set and map every
	// (query, sub) instance onto them.
	var dsubs []diffSub
	dedup := make(map[string]int)
	inst := make([][]int, len(queries))
	for qi := range queries {
		if templates[qi] == nil {
			continue
		}
		inst[qi] = make([]int, len(templates[qi]))
		for si := range templates[qi] {
			tmpl := &templates[qi][si]
			bg, query := tmpl.under(sg.bg)
			di, ok := dedup[query]
			if !ok {
				di = len(dsubs)
				dedup[query] = di
				dsubs = append(dsubs, diffSub{
					tmpl:  tmpl,
					query: query,
					plan:  sim.PlanQuery{Transfers: tmpl.sims, Background: bg},
				})
			}
			inst[qi][si] = di
		}
	}

	// Per member: probe the member's cache keys per instance (a repeated
	// instance is an in-plan dedup hit) and classify what is left against
	// the member's delta. A member's per-dsub state is one row of a
	// request-scoped table, in dsub order — which is first-ask order, so
	// walking a row walks the member's misses in the order it asked them.
	type memberState struct {
		g       *evalGroup
		derived bool        // the member has a delta against the base (the fork_* counters' scope)
		picture pictureKey  // with a dsub's query: this member's cache key
		subs    []memberSub // per dsub
	}
	nd := len(dsubs)
	members := make([]memberState, len(sg.members))
	// The member sitting on the base epoch, if any. An empty delta does not
	// make one: a no-op overlay (scale_link factor 1) derives its own epoch.
	var baseMember *memberState
	basePicture := pictureKeyOf(name, sg.base)
	table := make([]memberSub, len(members)*nd)
	key := func(picture pictureKey, di int) forecastKey { return forecastKey{picture, dsubs[di].query} }
	// Settle every led flight no matter how this function exits: a panic
	// must not leave followers waiting forever (abandon no-ops on
	// flights completed normally below, and on the nil slots).
	defer func() {
		for mi := range members {
			for di := range members[mi].subs {
				ev.Cache.entries.Abandon(key(members[mi].picture, di), members[mi].subs[di].led)
			}
		}
	}()
	for mi, g := range sg.members {
		m := &members[mi]
		*m = memberState{g: g, derived: !g.delta.Empty(), picture: pictureKeyOf(name, g.entry), subs: table[mi*nd : (mi+1)*nd]}
		if m.picture == basePicture {
			baseMember = m
		}
		for qi := range queries {
			for _, di := range inst[qi] {
				sub := &m.subs[di]
				if sub.have || sub.need || sub.followed != nil {
					g.hits++ // a repeated instance: answered, or already pending
					if alone && sub.have {
						// The LRU answered it, and a lone picture reports one
						// LRU hit per instance (cache_stats.hits), not per key
						// (should it have been evicted since, settle the flight
						// this probe opened).
						if _, f, leader := ev.Cache.lead(key(m.picture, di)); leader {
							ev.Cache.entries.Abandon(key(m.picture, di), f)
						}
					}
					continue
				}
				cached, f, leader := ev.Cache.lead(key(m.picture, di))
				if cached != nil {
					sub.subAnswer = subAnswer{preds: cached, have: true}
					g.hits++
					continue
				}
				if !leader {
					// Another request is simulating this key: collect its
					// answer after every flight we lead has published.
					sub.followed = f
					g.hits++
					continue
				}
				sub.led, sub.need = f, true
				switch {
				case alone:
					sub.class = sim.ClassCold
				case m.derived:
					sub.class = dsubs[di].footprint(base, sg.base.Config).Classify(g.delta)
				default: // no delta: the base answer is this member's answer
					sub.class = sim.ClassReuse
				}
				if sub.class == sim.ClassReuse {
					dsubs[di].needBase = true
				}
			}
		}
	}

	// Resolve the base answers the members reuse: from the forecast cache
	// when an earlier request already paid for them, else by running the
	// missing base subs as one batch.
	// Base keys lead flights too (probe without joining) so concurrent predict
	// requests against the base epoch can coalesce onto this batch —
	// but this phase never waits on a foreign flight: member answers
	// below depend on the base answers, and parking here could chain
	// into a cross-request cycle. When another request owns the flight,
	// the base sub just runs again (the pre-coalescing race, bounded to
	// this window). When the base-epoch member of THIS request leads the
	// key, its flight is the base flight: one miss for one simulation.
	defer func() {
		for di := range dsubs {
			ev.Cache.entries.Abandon(key(basePicture, di), dsubs[di].baseLed)
		}
	}()
	var runIdx []int
	for di := range dsubs {
		ds := &dsubs[di]
		if !ds.needBase {
			continue
		}
		if baseMember != nil && baseMember.subs[di].led != nil {
			ds.baseLed = baseMember.subs[di].led
			runIdx = append(runIdx, di)
			continue
		}
		preds, f, leader := ev.Cache.probe(key(basePicture, di), false)
		if preds != nil {
			ds.base = subAnswer{preds: preds, have: true}
			continue
		}
		if leader {
			ds.baseLed = f
		}
		runIdx = append(runIdx, di)
	}
	// Every run below answers on a pooled engine straight into the
	// canonical []Prediction the cache keeps; sc holds the completion dates.
	sc := getRunScratch()
	defer sc.put()
	if len(runIdx) > 0 {
		e := sim.AcquireEngineSnapshot(base, sg.base.Config)
		for _, di := range runIdx {
			ds := &dsubs[di]
			preds, err := simulate(e, &ds.plan, sc)
			ds.base = subAnswer{preds: preds, err: err, have: true}
			ev.Cache.entries.Complete(key(basePicture, di), ds.baseLed, cacheEntry{preds: preds}, err)
		}
		sim.ReleaseEngine(e)
		sg.baseSims += len(runIdx)
	}

	// Answer each member's remaining subs, memoizing them under the member's
	// own keys so the next request short-circuits at the cache probes above.
	// The base-epoch member (if any) resolves everything as reuse against
	// keys it already owns; its reuses are plain dedup, not differential
	// wins, so the fork_* counters only move for members with a real delta.
	for mi := range members {
		m := &members[mi]
		g := m.g
		run := 0
		for di := range m.subs {
			sub := &m.subs[di]
			if !sub.need {
				continue
			}
			if sub.class == sim.ClassReuse {
				sub.subAnswer = dsubs[di].base
				if m.derived {
					g.reused++
				}
				ev.Cache.entries.Complete(key(m.picture, di), sub.led, cacheEntry{preds: sub.preds}, sub.err)
				continue
			}
			if m.derived {
				if sub.class == sim.ClassFork {
					g.forked++
				} else {
					g.cold++
				}
			}
			run++
		}
		if run == 0 {
			continue
		}
		// The member's other subs — bandwidth-only and cold alike, all of its
		// misses when it has nothing to share — run one after another on one
		// pooled engine bound to its epoch. Where the base answer is at hand
		// and error-free, only the transfers the member's delta reaches run,
		// and the others keep their base predictions; a subset run that
		// fails gives way to the whole query, whose error is the answer.
		snap := g.entry.snapshot()
		partial := m.derived && g.entry.Config == sg.base.Config
		e := sim.AcquireEngineSnapshot(snap, g.entry.Config)
		for di := range m.subs {
			sub := &m.subs[di]
			if !sub.need || sub.class == sim.ClassReuse {
				continue
			}
			ds := &dsubs[di]
			n := len(ds.plan.Transfers)
			var preds []Prediction
			var err error
			all := true
			if partial && ds.base.have && ds.base.err == nil {
				sc.reached, all = ds.footprint(base, sg.base.Config).Reached(snap, g.delta, sc.reached[:0])
				if !all {
					if preds, err = simulateReached(e, &ds.plan, sc.reached, ds.base.preds, sc); err == nil {
						g.rerun += len(sc.reached)
						g.copied += n - len(sc.reached)
					}
				}
			}
			if all || err != nil {
				preds, err = simulate(e, &ds.plan, sc)
				if m.derived {
					g.rerun += n
				}
			}
			sub.subAnswer = subAnswer{preds: preds, err: err, have: true}
			ev.Cache.entries.Complete(key(m.picture, di), sub.led, cacheEntry{preds: preds}, err)
		}
		sim.ReleaseEngine(e)
		g.sims += run
	}

	// Every flight this supergroup leads has published; only now wait
	// for the answers other requests are computing for us (the deadlock
	// rule of internal/keyed).
	for mi := range members {
		m := &members[mi]
		for di := range m.subs {
			sub := &m.subs[di]
			if sub.followed == nil {
				continue
			}
			ds := &dsubs[di]
			ent, err := ev.Cache.entries.Wait(ctx, key(m.picture, di), sub.followed, func() (cacheEntry, error) {
				e := sim.AcquireEngineSnapshot(m.g.entry.snapshot(), m.g.entry.Config)
				defer sim.ReleaseEngine(e)
				m.g.sims++
				preds, err := simulate(e, &ds.plan, sc)
				return cacheEntry{preds: preds}, err
			})
			if err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			sub.subAnswer = subAnswer{preds: ent.preds, err: err, have: true}
		}
	}

	ordered := requestOrder{}
	for mi := range members {
		m := &members[mi]
		results := make([]EvalResult, len(queries))
		m.g.workflowCells(queries, results)
		foldSubResults(queries, templates, inst, m.subs, ordered, results)
		m.g.results = results
	}
	return nil
}
