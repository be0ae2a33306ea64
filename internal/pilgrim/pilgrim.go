// Package pilgrim implements the Pilgrim metrology and performance
// prediction framework — the paper's primary contribution (§IV-C).
//
// Pilgrim's services are REST-style web services: transport is HTTP,
// requests are HTTP GETs with parameters embedded in the URI, answers are
// JSON documents. Two services are offered:
//
//   - the metrology service (§IV-C1), a remote API over RRD file trees:
//     GET /pilgrim/rrd/{tool}/{site}/{host}/{metric}.rrd/?begin=B&end=E
//     answers [[timestamp, value], ...] with the most accurate data
//     available between the bounds, gathered across round-robin archives;
//
//   - the Pilgrim Network Forecast Service, PNFS (§IV-C2):
//     GET /pilgrim/predict_transfers/{platform}?transfer=src,dst,size&...
//     instantiates a flow-level simulation of the named platform
//     containing all requested transfers concurrently, and answers
//     [{"src":..., "dst":..., "size":..., "duration":...}, ...].
//
// Three extensions implement the paper's stated future work (§VI):
//
//   - GET /pilgrim/select_fastest/{platform}?hypothesis=... simulates n
//     alternative transfer hypotheses and returns the fastest;
//   - the predict_transfers "bg=src,dst" parameter injects known
//     background traffic into the simulation;
//   - POST /pilgrim/update_links/{platform} folds measured link state
//     (NWS/iperf bandwidth, latency) into a new copy-on-write platform
//     epoch, so subsequent forecasts answer against the live network
//     picture — the paper's dynamic measure→update→forecast loop.
//
// Observations are timestamped and attributed: every update appends to a
// bounded per-platform platform.Timeline instead of clobbering a single
// live picture, and feeds a per-link nws.Bank of dynamically selected
// predictors. predict_transfers and select_fastest accept at=T to answer
// against the epoch in effect at any past T (timeline lookup) or an
// NWS-extrapolated forecast epoch for future T within the horizon cap;
// GET /pilgrim/timeline_stats/{platform} exposes the retained history.
//
// PNFS answers are memoized by a bounded LRU ForecastCache keyed by the
// canonicalized (platform epoch, transfers, background) triple, so a
// resource management system polling the same decision repeatedly pays
// for one simulation; GET /pilgrim/cache_stats exposes the hit/miss
// counters.
package pilgrim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pilgrim/internal/bgtraffic"
	"pilgrim/internal/metrology"
	"pilgrim/internal/nws"
	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
	"pilgrim/internal/store"
)

// PlatformEntry couples a simulated platform with the model configuration
// used to simulate it. Snapshot optionally pins the compiled platform
// epoch predictions are answered against; when nil, the platform's
// current base snapshot is used. Entries handed out by a Registry always
// carry the registry's live epoch.
type PlatformEntry struct {
	Platform *platform.Platform
	Config   sim.Config
	Snapshot *platform.Snapshot
}

// snapshot returns the compiled epoch this entry answers against.
func (e PlatformEntry) snapshot() *platform.Snapshot {
	if e.Snapshot != nil {
		return e.Snapshot
	}
	return e.Platform.Snapshot()
}

// WithSnapshot returns the entry with its epoch pinned (compiling the
// platform's base snapshot if none was set). Callers that must answer a
// coherent batch of queries — a campaign, a benchmark — pin once and
// reuse the entry.
func (e PlatformEntry) WithSnapshot() PlatformEntry {
	e.Snapshot = e.snapshot()
	return e
}

// DefaultTimelineDepth is the per-platform history bound a fresh Registry
// applies (the pilgrimd -timeline-depth flag).
const DefaultTimelineDepth = platform.DefaultTimelineDepth

// DefaultForecastHorizon is how far past the newest observation the
// registry will extrapolate by default (the pilgrimd
// -forecast-horizon-max flag). Queries further out are refused with
// ErrBeyondHorizon rather than answered with a forecast no history
// supports.
const DefaultForecastHorizon = time.Hour

// ErrBeyondHorizon is returned by GetAt for a future time further past
// the newest observation than the configured horizon cap.
var ErrBeyondHorizon = errors.New("pilgrim: requested time beyond the forecast horizon")

// regEntry is one registered platform: the immutable registration, the
// timestamped epoch timeline, and the per-link NWS forecaster bank. The
// forecast hot path reads the live epoch through Timeline.Latest — one
// atomic load, no lock. fmu serializes observations (timeline append +
// bank update) and forecast-epoch materialization.
type regEntry struct {
	plat *platform.Platform
	cfg  sim.Config
	tl   *platform.Timeline

	fmu     sync.Mutex
	bank    *nws.Bank
	scratch []platform.LinkUpdateIdx
	// fsnap memoizes the synthetic forecast epoch derived from the latest
	// observation state (fbase). NWS predictors extrapolate the next value
	// — the forecast is the same for every in-horizon future T — so one
	// epoch per observation generation serves all future queries, and the
	// forecast cache (keyed by epoch id) memoizes their answers.
	fsnap *platform.Snapshot
	fbase uint64

	// rejects counts observation batches refused for naming unknown
	// links (surfaced by timeline_stats as rejected_updates).
	rejects atomic.Uint64

	// Registered background-traffic estimate (guarded by fmu): the
	// coarse flows bgtraffic synthesized from metrology counters, with
	// their provenance, that bg_estimate scenario mutations inject.
	bgFlows  [][2]string
	bgSource string
}

// Registry holds the named platforms a Pilgrim instance can predict on
// (the paper's g5k_test and g5k_cabinets), each with its link-state
// epoch timeline and forecaster bank.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
	depth   int
	horizon time.Duration

	// Durability (see storage.go; all nil/zero in memory mode). gate
	// serializes the background compactor (write lock) against mutators
	// (read lock) so compaction snapshots match the log cut exactly.
	gate        sync.RWMutex
	storage     Storage
	recovered   map[string]*store.PlatformRecovery
	compactCh   chan struct{}
	compactQuit chan struct{}
	compactWG   sync.WaitGroup
}

// NewRegistry returns an empty platform registry with
// DefaultTimelineDepth and DefaultForecastHorizon.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*regEntry),
		depth:   DefaultTimelineDepth,
		horizon: DefaultForecastHorizon,
	}
}

// SetTimelineDepth bounds the per-platform observation history (n <= 0
// restores the default). It applies to platforms added afterwards.
func (r *Registry) SetTimelineDepth(n int) {
	if n <= 0 {
		n = DefaultTimelineDepth
	}
	r.mu.Lock()
	r.depth = n
	r.mu.Unlock()
}

// SetForecastHorizon caps how far past the newest observation GetAt will
// extrapolate (d <= 0 restores the default). Observation times have
// one-second resolution, so sub-second caps round up to one second.
func (r *Registry) SetForecastHorizon(d time.Duration) {
	if d <= 0 {
		d = DefaultForecastHorizon
	} else if d < time.Second {
		d = time.Second
	}
	r.mu.Lock()
	r.horizon = d
	r.mu.Unlock()
}

// ForecastHorizon returns the configured horizon cap.
func (r *Registry) ForecastHorizon() time.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.horizon
}

// Add registers a platform under a name. The platform is compiled
// eagerly — the registry always serves a ready snapshot — and its
// timeline starts on the compiled base epoch. With storage attached, a
// platform recovered from the data directory under this name is restored
// warm (timeline, forecaster bank, and accounting exactly as logged);
// otherwise the registration is logged before it takes effect.
func (r *Registry) Add(name string, entry PlatformEntry) error {
	if name == "" || entry.Platform == nil {
		return fmt.Errorf("pilgrim: invalid platform registration %q", name)
	}
	base := entry.snapshot()
	r.gate.RLock()
	defer r.gate.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("pilgrim: platform %q already registered", name)
	}
	if pr, ok := r.recovered[name]; ok {
		re, err := r.restoreEntry(entry, pr)
		if err != nil {
			return fmt.Errorf("pilgrim: recovering platform %q: %w", name, err)
		}
		delete(r.recovered, name)
		r.entries[name] = re
		return nil
	}
	if r.storage != nil {
		err := r.storage.Append(store.Record{
			Op: store.OpAddPlatform, Platform: name,
			BaseEpoch: base.Epoch(), Links: base.NumLinks(),
		})
		if err != nil {
			return fmt.Errorf("pilgrim: logging registration of %q: %w", name, err)
		}
	}
	r.entries[name] = &regEntry{
		plat: entry.Platform,
		cfg:  entry.Config,
		tl:   platform.NewTimeline(base, r.depth),
		bank: nws.NewBank(base.NumLinks()),
	}
	return nil
}

func (r *Registry) lookup(name string) (*regEntry, bool) {
	r.mu.RLock()
	re, ok := r.entries[name]
	r.mu.RUnlock()
	return re, ok
}

// Get returns the platform registered under name, pinned to its current
// (newest-observation) link-state epoch.
func (r *Registry) Get(name string) (PlatformEntry, bool) {
	re, ok := r.lookup(name)
	if !ok {
		return PlatformEntry{}, false
	}
	return PlatformEntry{Platform: re.plat, Config: re.cfg, Snapshot: re.tl.Latest()}, true
}

// GetAt returns the platform pinned to its link-state epoch at time at
// (Unix seconds): past times resolve through the timeline (times before
// the retained history answer the compiled base epoch), future times
// within the horizon cap answer the NWS-extrapolated forecast epoch, and
// futures beyond the cap fail with ErrBeyondHorizon. Repeated queries
// resolve to the same epoch until new observations arrive, so cached
// forecast answers stay memoized.
func (r *Registry) GetAt(name string, at int64) (PlatformEntry, error) {
	re, ok := r.lookup(name)
	if !ok {
		return PlatformEntry{}, fmt.Errorf("pilgrim: unknown platform %q", name)
	}
	entry := PlatformEntry{Platform: re.plat, Config: re.cfg}
	last, ok := re.tl.LatestTime()
	if !ok {
		// No observation yet: the base epoch is the only known picture,
		// timeless — serve it for any requested time.
		entry.Snapshot = re.tl.Latest()
		return entry, nil
	}
	if at <= last {
		entry.Snapshot = re.tl.AtTime(at)
		return entry, nil
	}
	horizon := int64(r.ForecastHorizon() / time.Second)
	if at-last > horizon {
		return PlatformEntry{}, fmt.Errorf("%w: t=%d is %ds past the last observation (%d), cap %ds",
			ErrBeyondHorizon, at, at-last, last, horizon)
	}
	entry.Snapshot = re.forecastEpoch()
	return entry, nil
}

// forecastEpoch materializes (or reuses) the synthetic epoch holding the
// bank's per-link extrapolations on top of the newest observed state.
func (re *regEntry) forecastEpoch() *platform.Snapshot {
	re.fmu.Lock()
	defer re.fmu.Unlock()
	latest := re.tl.Latest()
	if re.fsnap != nil && re.fbase == latest.Epoch() {
		return re.fsnap
	}
	re.scratch = re.scratch[:0]
	for _, li := range re.bank.Observed() {
		bw, okBW := re.bank.ForecastBandwidth(li)
		lat, okLat := re.bank.ForecastLatency(li)
		if !okBW {
			bw = -1
		}
		if !okLat {
			lat = -1
		}
		if okBW || okLat {
			re.scratch = append(re.scratch, platform.LinkUpdateIdx{Link: li, Bandwidth: bw, Latency: lat})
		}
	}
	if len(re.scratch) == 0 {
		// Nothing to extrapolate: the latest epoch IS the forecast, and
		// reusing it keeps cache keys shared with current-time queries.
		re.fsnap = latest
	} else {
		fs, err := latest.WithLinkStateIdx(re.scratch)
		if err != nil {
			// Bank indices come from this platform's snapshots; out-of-range
			// is impossible. Fall back to the latest epoch defensively.
			fs = latest
		}
		re.fsnap = fs
	}
	re.fbase = latest.Epoch()
	return re.fsnap
}

// ObserveLinkState folds one timestamped, attributed batch of measured
// link revisions into the named platform: the timeline appends a new
// copy-on-write epoch (which becomes the picture current-time forecasts
// answer against), and every measured value feeds the per-link NWS
// forecaster bank. t is Unix seconds and must not precede the newest
// recorded observation; source is free provenance text recorded in the
// timeline. Concurrent in-flight forecasts keep the epoch they loaded.
// Returns the published snapshot.
func (r *Registry) ObserveLinkState(name string, t int64, source string, updates []platform.LinkUpdate) (*platform.Snapshot, error) {
	re, ok := r.lookup(name)
	if !ok {
		return nil, fmt.Errorf("pilgrim: unknown platform %q", name)
	}
	r.gate.RLock()
	defer r.gate.RUnlock()
	re.fmu.Lock()
	defer re.fmu.Unlock()
	// Write-ahead ordering: validate, allocate the epoch id, log, then
	// apply. Validation up front means the apply cannot fail after the
	// record is in the log — so log and registry never diverge.
	if last, ok := re.tl.LatestTime(); ok && t < last {
		return nil, fmt.Errorf("%w: observation at %d, head at %d", platform.ErrOutOfOrder, t, last)
	}
	latest := re.tl.Latest()
	for _, u := range updates {
		if _, ok := latest.LinkIndex(u.Link); !ok {
			return nil, fmt.Errorf("platform: unknown link %q in link-state update", u.Link)
		}
	}
	updates = finiteUpdates(updates)
	epoch := platform.AllocateEpoch()
	if s := r.backend(); s != nil {
		err := s.Append(store.Record{
			Op: store.OpObserve, Platform: name,
			Time: t, Source: source, Epoch: epoch, Updates: updates,
		})
		if err != nil {
			return nil, fmt.Errorf("pilgrim: logging observation: %w", err)
		}
	}
	snap, err := re.tl.AppendPinned(t, source, updates, epoch)
	if err != nil {
		return nil, err // unreachable: validated above
	}
	feedBank(re.bank, snap, updates)
	r.maybeCompact()
	return snap, nil
}

// RecordUpdateReject counts one refused observation batch (unknown link
// names) against the platform, for timeline_stats accounting. Logged
// like any other mutation so a warm restart reports the same counter.
func (r *Registry) RecordUpdateReject(name string) {
	re, ok := r.lookup(name)
	if !ok {
		return
	}
	r.gate.RLock()
	defer r.gate.RUnlock()
	if s := r.backend(); s != nil {
		if err := s.Append(store.Record{Op: store.OpReject, Platform: name}); err != nil {
			return // refuse the count rather than diverge from the log
		}
	}
	re.rejects.Add(1)
	r.maybeCompact()
}

// UpdateRejects reports how many observation batches the platform has
// refused for naming unknown links.
func (r *Registry) UpdateRejects(name string) uint64 {
	re, ok := r.lookup(name)
	if !ok {
		return 0
	}
	return re.rejects.Load()
}

// SetBackgroundEstimate registers a background-traffic estimate for the
// named platform: the coarse persistent flows that bg_estimate scenario
// mutations inject into what-if evaluations, with free provenance text
// recording where they came from. Replaces any previous estimate; an
// empty flow set clears it.
func (r *Registry) SetBackgroundEstimate(name, source string, flows [][2]string) error {
	re, ok := r.lookup(name)
	if !ok {
		return fmt.Errorf("pilgrim: unknown platform %q", name)
	}
	r.gate.RLock()
	defer r.gate.RUnlock()
	re.fmu.Lock()
	defer re.fmu.Unlock()
	if s := r.backend(); s != nil {
		err := s.Append(store.Record{
			Op: store.OpBgEstimate, Platform: name, Source: source, Flows: flows,
		})
		if err != nil {
			return fmt.Errorf("pilgrim: logging background estimate: %w", err)
		}
	}
	if len(flows) == 0 {
		re.bgFlows, re.bgSource = nil, ""
	} else {
		re.bgFlows = append([][2]string(nil), flows...)
		re.bgSource = source
	}
	r.maybeCompact()
	return nil
}

// BackgroundEstimate returns the platform's registered background-traffic
// estimate and its provenance; ok is false when none is registered.
func (r *Registry) BackgroundEstimate(name string) (flows [][2]string, source string, ok bool) {
	re, found := r.lookup(name)
	if !found {
		return nil, "", false
	}
	re.fmu.Lock()
	defer re.fmu.Unlock()
	if len(re.bgFlows) == 0 {
		return nil, "", false
	}
	return re.bgFlows, re.bgSource, true
}

// EstimateBackgroundFromMetrology wires bgtraffic.FromMetrology into the
// registry as an observation source: interface byte counters collected
// under tool over [begin, end) are reduced to per-node rates, matched
// into coarse persistent flows (bgtraffic.Estimate), and registered —
// provenance-tagged — as the platform's background estimate, so
// background-traffic scenarios seed from real RRD series instead of
// hand-written flows. Returns the number of synthesized flows.
func (r *Registry) EstimateBackgroundFromMetrology(name string, metrics *metrology.Registry, tool string, begin, end int64, cfg bgtraffic.Config) (int, error) {
	if _, ok := r.lookup(name); !ok {
		return 0, fmt.Errorf("pilgrim: unknown platform %q", name)
	}
	obs, err := bgtraffic.FromMetrology(metrics, tool, begin, end)
	if err != nil {
		return 0, err
	}
	flows, err := bgtraffic.Estimate(obs, cfg)
	if err != nil {
		return 0, err
	}
	pairs := make([][2]string, len(flows))
	for i, f := range flows {
		pairs[i] = [2]string{f.Src, f.Dst}
	}
	source := fmt.Sprintf("bgtraffic:%s[%d,%d)", tool, begin, end)
	if err := r.SetBackgroundEstimate(name, source, pairs); err != nil {
		return 0, err
	}
	return len(pairs), nil
}

// TimelineStats reports the named platform's timeline accounting.
func (r *Registry) TimelineStats(name string) (platform.TimelineStats, bool) {
	re, ok := r.lookup(name)
	if !ok {
		return platform.TimelineStats{}, false
	}
	return re.tl.Stats(), true
}

// TimelineDepth reports how many observations the named platform's
// timeline retains — the O(1) accessor the update answer uses (Stats
// materializes the whole entry list).
func (r *Registry) TimelineDepth(name string) (int, bool) {
	re, ok := r.lookup(name)
	if !ok {
		return 0, false
	}
	return re.tl.Depth(), true
}

// Names returns the sorted registered platform names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TransferRequest is one requested transfer: (source, destination, size),
// the 3-uple of §IV-C2.
type TransferRequest struct {
	Src  string  `json:"src"`
	Dst  string  `json:"dst"`
	Size float64 `json:"size"`
}

// Prediction is the answered 4-uple: the transfer plus its predicted TCP
// completion time in seconds.
type Prediction struct {
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	Size     float64 `json:"size"`
	Duration float64 `json:"duration"`
}

// PredictTransfers answers a PNFS request directly (the in-process path;
// the HTTP server wraps this). Background flows, if any, contend with the
// requested transfers for the whole simulation.
func PredictTransfers(entry PlatformEntry, transfers []TransferRequest, background [][2]string) ([]Prediction, error) {
	if len(transfers) == 0 {
		return nil, fmt.Errorf("pilgrim: no transfers requested")
	}
	return predictOrdered(entry, transfers, nil, background)
}

// runScratch is what one forecast run needs and no answer keeps: the
// transfers in simulation order and the completion dates the sim runner
// writes. Pooled, so a run allocates only the []Prediction it returns —
// the slice the forecast cache keeps.
type runScratch struct {
	sims    []sim.Transfer
	dates   []float64
	reached []int32
}

var runScratchPool = sync.Pool{New: func() any { return new(runScratch) }}

func getRunScratch() *runScratch { return runScratchPool.Get().(*runScratch) }

// put returns the scratch to the pool without pinning the request's
// strings.
func (sc *runScratch) put() {
	clear(sc.sims)
	sc.sims = sc.sims[:0]
	runScratchPool.Put(sc)
}

// predictOrdered simulates transfers — in the order order lists them, or
// as given when order is nil — on a pooled engine bound to entry's epoch,
// and returns the answer in simulation order.
func predictOrdered(entry PlatformEntry, transfers []TransferRequest, order []int, background [][2]string) ([]Prediction, error) {
	sc := getRunScratch()
	defer sc.put()
	for pos := range transfers {
		i := pos
		if order != nil {
			i = order[pos]
		}
		t := &transfers[i]
		sc.sims = append(sc.sims, sim.Transfer{Src: t.Src, Dst: t.Dst, Size: t.Size})
	}
	e := sim.AcquireEngineSnapshot(entry.snapshot(), entry.Config)
	defer sim.ReleaseEngine(e)
	return simulate(e, &sim.PlanQuery{Transfers: sc.sims, Background: background}, sc)
}

// simulate answers q on e (sim.Engine.RunQuery) and builds the answer in
// q's transfer order straight from the completion dates, which land in
// sc's scratch.
func simulate(e *sim.Engine, q *sim.PlanQuery, sc *runScratch) ([]Prediction, error) {
	n := len(q.Transfers)
	sc.dates = slices.Grow(sc.dates[:0], n)[:n]
	if err := e.RunQuery(q, sc.dates); err != nil {
		return nil, err
	}
	preds := make([]Prediction, n)
	for i, t := range q.Transfers {
		preds[i] = Prediction{Src: t.Src, Dst: t.Dst, Size: t.Size, Duration: sc.dates[i] - t.Start}
	}
	return preds, nil
}

// simulateReached answers q on e from base, q's answer on the epoch e's
// derives from: only the transfers reached lists (sim.Footprint.Reached)
// run, in that order, and every other prediction is base's.
func simulateReached(e *sim.Engine, q *sim.PlanQuery, reached []int32, base []Prediction, sc *runScratch) ([]Prediction, error) {
	n := len(reached)
	sc.sims = sc.sims[:0]
	for _, t := range reached {
		sc.sims = append(sc.sims, q.Transfers[t])
	}
	sc.dates = slices.Grow(sc.dates[:0], n)[:n]
	if err := e.RunQuery(&sim.PlanQuery{Transfers: sc.sims}, sc.dates); err != nil {
		return nil, err
	}
	preds := slices.Clone(base)
	for j, t := range reached {
		preds[t].Duration = sc.dates[j] - q.Transfers[t].Start
	}
	return preds, nil
}

// Hypothesis is one alternative considered by SelectFastest: a set of
// transfers that would be executed together.
type Hypothesis struct {
	Transfers []TransferRequest `json:"transfers"`
}

// HypothesisResult reports the simulated makespan of one hypothesis.
type HypothesisResult struct {
	Index       int          `json:"index"`
	Makespan    float64      `json:"makespan"`
	Predictions []Prediction `json:"predictions"`
}

// SelectFastest simulates each hypothesis independently and returns all
// results plus the index of the hypothesis with the smallest makespan
// (paper §VI: "given n different transfer hypotheses, select the fastest
// one"). Hypotheses are evaluated concurrently over the package's default
// worker pool; use a dedicated NewWorkerPool to control the width.
func SelectFastest(entry PlatformEntry, hyps []Hypothesis) (best int, results []HypothesisResult, err error) {
	return defaultPool().SelectFastest(entry, hyps)
}
