package pilgrim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pilgrim/internal/bgtraffic"
	"pilgrim/internal/metrology"
	"pilgrim/internal/platform"
	"pilgrim/internal/rrd"
	"pilgrim/internal/shard"
	"pilgrim/internal/sim"
	"pilgrim/internal/store"
	"pilgrim/internal/workflow"
)

// DefaultForecastCacheSize is the forecast cache capacity NewServer
// installs; use SetForecastCache to change or disable it.
const DefaultForecastCacheSize = 256

// Server is the Pilgrim HTTP front end: the metrology RRD service and
// PNFS, mounted under /pilgrim/ exactly as in the paper's examples.
type Server struct {
	platforms *Registry
	metrics   *metrology.Registry
	cache     atomic.Pointer[ForecastCache]
	pool      atomic.Pointer[WorkerPool]
	overlays  *OverlayCache
	mux       *http.ServeMux

	// Evaluate limits (0 selects the package defaults).
	maxScenarios atomic.Int64
	maxCells     atomic.Int64

	// differentialOff and legacyJSON select the test oracles
	// (SetDifferentialEval, SetLegacyJSON); the zero values are what
	// pilgrimd serves with. Output is byte-identical either way.
	differentialOff atomic.Bool
	legacyJSON      atomic.Bool

	// admission bounds the simulation endpoints (nil: unlimited);
	// maxBodyBytes caps request bodies on the body-carrying endpoints
	// (0 selects DefaultMaxBodyBytes).
	admission    atomic.Pointer[Admission]
	maxBodyBytes atomic.Int64

	// shard is the worker's fleet identity (nil: standalone — every
	// platform request is served). When set, platform-scoped requests
	// for platforms the ring assigns elsewhere answer 421 with the
	// owner's address, so a stale client (or a gateway mid-reload)
	// learns where the platform lives instead of silently reading a
	// cold timeline.
	shard       atomic.Pointer[shardIdentity]
	misdirected atomic.Uint64
}

// shardIdentity pairs this worker's name with the fleet's routing table.
type shardIdentity struct {
	self  string
	table *shard.Table
}

// DefaultMaxBodyBytes is the request-body cap applied to update_links,
// evaluate, and predict_workflow (the pilgrimd -max-body-bytes flag).
const DefaultMaxBodyBytes = 16 << 20

// NewServer builds a server over the given platform registry and metric
// registry (either may be empty, disabling the respective service's
// content). Predictions go through a ForecastCache of
// DefaultForecastCacheSize entries.
func NewServer(platforms *Registry, metrics *metrology.Registry) *Server {
	if platforms == nil {
		platforms = NewRegistry()
	}
	if metrics == nil {
		metrics = metrology.NewRegistry()
	}
	s := &Server{
		platforms: platforms,
		metrics:   metrics,
		overlays:  NewOverlayCache(DefaultOverlayCacheSize),
		mux:       http.NewServeMux(),
	}
	s.cache.Store(NewForecastCache(DefaultForecastCacheSize))
	s.pool.Store(NewWorkerPool(DefaultForecastWorkers))
	for _, r := range s.routes() {
		s.mux.HandleFunc(r.pattern, r.handler)
	}
	return s
}

// route is one endpoint: a ServeMux pattern and its handler.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes lists every endpoint the server answers. docs/API.md has a
// heading for each (TestAPIDocListsEveryRoute).
func (s *Server) routes() []route {
	return []route{
		{"GET /pilgrim/platforms", s.handlePlatforms},
		{"GET /pilgrim/predict_transfers/{platform}", s.handlePredict},
		{"GET /pilgrim/select_fastest/{platform}", s.handleSelectFastest},
		{"POST /pilgrim/predict_workflow/{platform}", s.handleWorkflow},
		{"POST /pilgrim/evaluate/{platform}", s.handleEvaluate},
		{"GET /pilgrim/bg_estimate/{platform}", s.handleBgEstimateGet},
		{"POST /pilgrim/bg_estimate/{platform}", s.handleBgEstimatePost},
		{"POST /pilgrim/update_links/{platform}", s.handleUpdateLinks},
		{"GET /pilgrim/timeline_stats/{platform}", s.handleTimelineStats},
		{"GET /pilgrim/cache_stats", s.handleCacheStats},
		{"GET /metrics", s.handleMetrics},
		{"GET /pilgrim/rrd/{tool}/{site}/{host}/{metric}/", s.handleRRD},
		{"GET /pilgrim/rrd/{tool}/{site}/{host}/{metric}", s.handleRRD},
	}
}

// SetForecastCache replaces the server's forecast cache with one of the
// given capacity (capacity <= 0 disables caching). Safe to call while
// serving: existing counters and entries are dropped, and concurrent
// in-flight requests keep using the cache they started with.
func (s *Server) SetForecastCache(capacity int) {
	s.cache.Store(NewForecastCache(capacity))
}

// SetForecastWorkers replaces the server's hypothesis worker pool with
// one of the given width (n <= 0 selects DefaultForecastWorkers, 1 gives
// sequential evaluation). Safe to call while serving: counters restart
// and in-flight select_fastest requests finish on the pool they started
// with.
func (s *Server) SetForecastWorkers(n int) {
	s.pool.Store(NewWorkerPool(n))
}

// SetEvaluateLimits bounds evaluate requests: at most maxScenarios
// scenarios and maxCells scenario×query cells per request (either <= 0
// restores the package default).
func (s *Server) SetEvaluateLimits(maxScenarios, maxCells int) {
	s.maxScenarios.Store(int64(maxScenarios))
	s.maxCells.Store(int64(maxCells))
}

// SetAdmission bounds the simulation endpoints (predict_transfers,
// select_fastest, evaluate, predict_workflow): at most maxInflight
// requests at once, at most maxQueue more waiting, the rest shed with
// 429 + Retry-After. maxInflight <= 0 disables admission control. Safe
// to call while serving; in-flight requests finish under the controller
// they were admitted by.
func (s *Server) SetAdmission(maxInflight, maxQueue int, retryAfter time.Duration) {
	s.admission.Store(NewAdmission(maxInflight, maxQueue, retryAfter))
}

// SetMaxBodyBytes caps request bodies on the body-carrying endpoints
// (n <= 0 restores DefaultMaxBodyBytes). Oversized bodies answer a
// structured 413.
func (s *Server) SetMaxBodyBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBodyBytes
	}
	s.maxBodyBytes.Store(n)
}

// bodyLimit is the configured request-body cap.
func (s *Server) bodyLimit() int64 {
	if n := s.maxBodyBytes.Load(); n > 0 {
		return n
	}
	return DefaultMaxBodyBytes
}

// BodyTooLargeError is the structured 413 body the body-carrying
// endpoints answer when a request exceeds the configured cap.
type BodyTooLargeError struct {
	Error        string `json:"error"`
	MaxBodyBytes int64  `json:"max_body_bytes"`
}

// OverCapacityError is the structured 429 body shed requests receive;
// the Retry-After header carries the same hint in seconds.
type OverCapacityError struct {
	Error             string `json:"error"`
	RetryAfterSeconds int64  `json:"retry_after_seconds"`
}

// parseQuery parses the request's query string — once per request; the
// handlers share the value. Unlike r.URL.Query() it does not discard the
// parse error: a malformed escape or a raw ';' separator would silently
// drop the parameter it sits in and answer 200 for a different question,
// so it answers 400 naming the error instead.
func parseQuery(w http.ResponseWriter, r *http.Request) (url.Values, bool) {
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		http.Error(w, fmt.Sprintf("malformed query string: %v", err), http.StatusBadRequest)
		return nil, false
	}
	return q, true
}

// admit is the shared entry of the simulation endpoints: it parses the
// query (400 when malformed), then applies the optional deadline
// parameter and admission control (acquire). ok=false means the request
// was already answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (ctx context.Context, q url.Values, cleanup func(), ok bool) {
	if q, ok = parseQuery(w, r); !ok {
		return nil, nil, nil, false
	}
	ctx, cleanup, ok = s.acquire(w, r, q.Get("deadline"))
	return ctx, q, cleanup, ok
}

// acquire applies admission control and the optional deadline (seconds,
// fractional allowed; "" for none) to a simulation request. A budget
// beyond time.Duration's range (~292 years) is no deadline. Returns a
// context for the work, a cleanup to defer, and ok=false when the
// request was already answered (429 on shed, 504 on a deadline that
// expired while queued, 400 on a malformed deadline).
func (s *Server) acquire(w http.ResponseWriter, r *http.Request, dl string) (ctx context.Context, cleanup func(), ok bool) {
	ctx = r.Context()
	cancel := func() {}
	if dl != "" {
		secs, err := strconv.ParseFloat(dl, 64)
		if err != nil || secs <= 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
			http.Error(w, fmt.Sprintf("deadline %q is not a positive number of seconds", dl), http.StatusBadRequest)
			return nil, nil, false
		}
		if ns := secs * float64(time.Second); ns < math.MaxInt64 {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ns))
		}
	}
	adm := s.admission.Load()
	release, err := adm.Acquire(ctx)
	if err != nil {
		cancel()
		if errors.Is(err, ErrShed) {
			retry := int64((adm.RetryAfter() + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
			writeJSONStatus(w, http.StatusTooManyRequests, OverCapacityError{
				Error:             "server over capacity, retry later",
				RetryAfterSeconds: retry,
			})
		} else {
			http.Error(w, "deadline expired while queued for admission", http.StatusGatewayTimeout)
		}
		return nil, nil, false
	}
	return ctx, func() { release(); cancel() }, true
}

// finishCtx maps a context failure from the simulation path onto its
// HTTP answer: 504 for an expired deadline, 499-style client-closed for
// a canceled request. Returns true when it answered.
func finishCtx(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "deadline exceeded before the request finished", http.StatusGatewayTimeout)
		return true
	case errors.Is(err, context.Canceled):
		// Client gone; nothing useful to write.
		http.Error(w, "request canceled", http.StatusServiceUnavailable)
		return true
	}
	return false
}

// SetShardIdentity makes the server fleet-aware: self is this worker's
// name in the shard map and table the fleet's routing table (reloadable;
// the server reads it per request). Platform-scoped requests for
// platforms the ring assigns to another worker are rejected with 421 and
// a redirect hint naming the owner. A nil table restores standalone
// serving.
func (s *Server) SetShardIdentity(self string, table *shard.Table) {
	if table == nil {
		s.shard.Store(nil)
		return
	}
	s.shard.Store(&shardIdentity{self: self, table: table})
}

// MisdirectedError is the structured 421 body a fleet worker answers
// when asked about a platform the shard map assigns elsewhere. OwnerURL
// is the redirect hint: where the gateway (or a shard-aware client)
// should have sent the request.
type MisdirectedError struct {
	Error    string `json:"error"`
	Platform string `json:"platform"`
	Shard    string `json:"shard"`
	Owner    string `json:"owner"`
	OwnerURL string `json:"owner_url"`
}

// ownsPlatform enforces shard ownership on a platform-scoped request;
// reports true when the request may proceed (standalone server, or this
// worker owns the platform) and answers the 421 hint otherwise.
func (s *Server) ownsPlatform(w http.ResponseWriter, r *http.Request) bool {
	id := s.shard.Load()
	if id == nil {
		return true
	}
	name := r.PathValue("platform")
	owner := id.table.Owner(name)
	if owner.Name == id.self {
		return true
	}
	s.misdirected.Add(1)
	writeJSONStatus(w, http.StatusMisdirectedRequest, MisdirectedError{
		Error:    fmt.Sprintf("platform %q is owned by shard %q, not %q", name, owner.Name, id.self),
		Platform: name,
		Shard:    id.self,
		Owner:    owner.Name,
		OwnerURL: owner.URL,
	})
	return false
}

// SetDifferentialEval enables (the default) or disables warm-start
// differential evaluation of derived scenario epochs. Disabling it forces
// every sub-simulation to run cold; results are bit-identical either way.
// It is a test and benchmark hook (the cold oracle), not a pilgrimd flag.
func (s *Server) SetDifferentialEval(on bool) {
	s.differentialOff.Store(!on)
}

// SetLegacyJSON routes the hot simulation responses (predict_transfers,
// select_fastest, evaluate) through encoding/json instead of the pooled
// hand-rolled encoders. The two paths produce byte-identical output; this
// setter is how the encoder differential tests, the fuzzers and bench-check
// reach the encoding/json oracle. It is a test and benchmark hook, not a
// pilgrimd flag.
func (s *Server) SetLegacyJSON(on bool) {
	s.legacyJSON.Store(on)
}

// evaluator assembles the evaluate machinery from the server's live
// configuration.
func (s *Server) evaluator() *Evaluator {
	return &Evaluator{
		Platforms:           s.platforms,
		Cache:               s.cache.Load(),
		Pool:                s.pool.Load(),
		Overlays:            s.overlays,
		MaxScenarios:        int(s.maxScenarios.Load()),
		MaxCells:            int(s.maxCells.Load()),
		DisableDifferential: s.differentialOff.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.platforms.Names())
}

// parseTransferParam parses one "src,dst,size" value. strings.Cut
// instead of Split: no per-transfer slice allocation on the QPS path.
func parseTransferParam(v string) (TransferRequest, error) {
	src, rest, ok := strings.Cut(v, ",")
	if !ok {
		return TransferRequest{}, fmt.Errorf("transfer %q is not src,dst,size", v)
	}
	dst, sizeStr, ok := strings.Cut(rest, ",")
	if !ok || strings.Contains(sizeStr, ",") {
		return TransferRequest{}, fmt.Errorf("transfer %q is not src,dst,size", v)
	}
	size, err := strconv.ParseFloat(sizeStr, 64)
	if err != nil || size <= 0 || math.IsInf(size, 0) || math.IsNaN(size) {
		return TransferRequest{}, fmt.Errorf("transfer %q has invalid size", v)
	}
	return TransferRequest{Src: src, Dst: dst, Size: size}, nil
}

// platformOf resolves the platform of the request, honoring the optional
// at=T parameter (Unix seconds or "2006-01-02 15:04:05" UTC): without it
// the entry is pinned to the newest-observation epoch; with a past T, to
// the timeline epoch in effect at T; with a future T inside the horizon
// cap, to the NWS-extrapolated forecast epoch. Beyond-horizon futures and
// malformed timestamps answer 400, unknown platforms 404. atParam is the
// request's first at= value ("" for none).
func (s *Server) platformOf(w http.ResponseWriter, r *http.Request, atParam string) (PlatformEntry, bool) {
	if !s.ownsPlatform(w, r) {
		return PlatformEntry{}, false
	}
	name := r.PathValue("platform")
	entry, ok := s.platforms.Get(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown platform %q", name), http.StatusNotFound)
		return PlatformEntry{}, false
	}
	if atParam != "" {
		at, err := parseTimestamp(atParam)
		if err != nil {
			http.Error(w, fmt.Sprintf("at: %v", err), http.StatusBadRequest)
			return PlatformEntry{}, false
		}
		entry, err = s.platforms.GetAt(name, at)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return PlatformEntry{}, false
		}
	}
	return entry, true
}

// handlePredict implements PNFS (§IV-C2):
//
//	GET /pilgrim/predict_transfers/g5k_test?transfer=src,dst,size&...
//	    [&bg=src,dst]... [&at=T]
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("platform")
	fc := s.cache.Load()
	hot := !s.legacyJSON.Load()
	// Rung 1 of the ladder (docs/DESIGN.md, "Serving hot path"): has this
	// exact request line been answered against the head epoch? A rendering
	// is only ever attached to a request that carried neither at= nor
	// deadline=, so a match needs no parse to know both are absent.
	poll := false
	if hot {
		if head, ok := s.platforms.Get(name); ok {
			poll = fc.hasRendering(renderKeyOf(name, head, r.URL.RawQuery))
		}
	}
	// On a poll p stays the shared empty query (no at, no deadline) unless
	// the rendered hit falls through: a poll decodes nothing.
	p := &emptyPredictQuery
	if !poll {
		if p = decodePredict(w, r); p == nil {
			return
		}
		defer p.release()
	}
	ctx, cleanup, ok := s.acquire(w, r, p.deadline)
	if !ok {
		return
	}
	defer cleanup()
	entry, ok := s.platformOf(w, r, p.at)
	if !ok {
		return
	}
	rk := renderKeyOf(name, entry, r.URL.RawQuery)
	if poll {
		if body, ok := fc.renderedHit(rk); ok {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			return
		}
		// Evicted, or the epoch moved, since the probe: the long way.
		if p = decodePredict(w, r); p == nil {
			return
		}
		defer p.release()
	}
	if err := p.err(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// One simulation, not interruptible mid-run: honor the deadline by
	// refusing to start once it has passed (it may have expired while the
	// request waited for admission).
	if err := ctx.Err(); err != nil {
		finishCtx(w, err)
		return
	}
	canonical, cq, err := fc.predictKeyed(ctx, name, entry, p.transfers, p.background)
	if err != nil {
		if finishCtx(w, err) {
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !hot {
		writeJSON(w, reorder(canonical, cq.order))
		return
	}
	// The canonical answer is rendered in request order as it is encoded
	// (docs/DESIGN.md, "Serving hot path"): no reordered copy is built
	// unless the encoder falls back to encoding/json.
	e := encodePredictions(canonical, cq.order)
	if !e.fallback && !p.hasAt && !p.hasDeadline {
		fc.attachRendering(cq.key, rk, e.buf)
	}
	writeHotJSON(w, e, func() any { return reorder(canonical, cq.order) })
}

// decodePredict decodes r's query into a pooled predictQuery, to be
// released by the caller: strictly when it can (predictQuery.decodeStrict),
// through url.ParseQuery otherwise. Returns nil when the query was
// malformed and the 400 has been written.
func decodePredict(w http.ResponseWriter, r *http.Request) *predictQuery {
	p := predictQueries.Get().(*predictQuery)
	if p.decodeStrict(r.URL.RawQuery) {
		return p
	}
	q, ok := parseQuery(w, r)
	if !ok {
		p.release()
		return nil
	}
	p.fromValues(q)
	return p
}

// serverStats is the cache_stats document and, through its fields'
// metric tags, the /metrics listing: the forecast cache's hit/miss
// counters, the worker pool's telemetry (hypothesis and evaluate
// fan-out), the scenario-overlay cache counters, admission-control
// accounting, the process-wide simulation-engine pool's counters, and —
// when the registry is WAL-backed — the durable-store counters.
type serverStats struct {
	CacheStats
	Forecast  WorkerStats      `json:"forecast_workers"`
	Overlays  OverlayStats     `json:"scenario_overlays"`
	Admission AdmissionStats   `json:"admission"`
	Engines   sim.PoolCounters `json:"engine_pool"`
	Storage   *store.WALStats  `json:"storage,omitempty"`
}

// stats snapshots every component's counters into one document.
func (s *Server) stats() serverStats {
	var storage *store.WALStats
	if st, ok := s.platforms.StorageStats(); ok {
		storage = &st
	}
	return serverStats{s.cache.Load().Stats(), s.pool.Load().Stats(), s.overlays.Stats(),
		s.admission.Load().Stats(), sim.PoolStats(), storage}
}

// handleCacheStats reports the server's counters as JSON:
//
//	GET /pilgrim/cache_stats
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.stats())
}

// handleEvaluate implements batched what-if evaluation: POST N scenarios
// (composable epoch mutations) × M queries, receive the full answer grid
// in one round trip.
//
//	POST /pilgrim/evaluate/g5k_test
//	{"scenarios": [{"name": "deg", "mutations": [
//	    {"op": "scale_link", "link": "L", "bandwidth_factor": 0.6}]}],
//	 "queries": [{"kind": "predict_transfers",
//	    "transfers": [{"src": "A", "dst": "B", "size": 5e8}]}]}
//
// Scenarios sharing a network picture share one derived epoch, and
// identical (epoch, config, query) sub-simulations run once (forecast
// cache + in-request dedup). Per-scenario and per-cell failures are
// reported inside the grid; request-shape problems answer 400.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	ctx, _, cleanup, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer cleanup()
	if !s.ownsPlatform(w, r) {
		return
	}
	name := r.PathValue("platform")
	if _, ok := s.platforms.Get(name); !ok {
		http.Error(w, fmt.Sprintf("unknown platform %q", name), http.StatusNotFound)
		return
	}
	var req EvaluateRequest
	if !s.decodeJSONBody(w, r, "evaluate request", &req, req.decodeStrict) {
		return
	}
	resp, err := s.evaluator().EvaluateCtx(ctx, name, req)
	if err != nil {
		if finishCtx(w, err) {
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.writeEvaluate(w, resp)
}

// bodyScratch pools the body-read buffers behind decodeJSONBody: the
// evaluate and predict_workflow decode paths read the whole (capped)
// body into a reused buffer and unmarshal from it, instead of paying a
// fresh json.Decoder plus its internal read buffer per request.
var bodyScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffer capacity bodyScratch retains; a
// one-off huge body should not pin its backing array forever.
const maxPooledBody = 1 << 20

// decodeJSONBody reads r's JSON body — capped at the configured body
// limit — into a pooled scratch buffer and decodes it into v: with strict
// (a one-pass decoder into v, decode.go) when it is non-nil and accepts the
// body, with json.Unmarshal otherwise. Reports whether it succeeded; on
// failure the response (413 or 400) has been written. Both decoders copy
// every string they decode, so recycling the scratch after return is
// safe.
func (s *Server) decodeJSONBody(w http.ResponseWriter, r *http.Request, what string, v any, strict func([]byte) bool) bool {
	buf := bodyScratch.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyScratch.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.bodyLimit())); err != nil {
		if bodyTooLarge(w, s, err) {
			return false
		}
		http.Error(w, fmt.Sprintf("decoding %s: %v", what, err), http.StatusBadRequest)
		return false
	}
	if strict != nil && strict(buf.Bytes()) {
		return true
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		http.Error(w, fmt.Sprintf("decoding %s: %v", what, err), http.StatusBadRequest)
		return false
	}
	return true
}

// bodyTooLarge answers the structured 413 when err is the MaxBytesReader
// limit; reports whether it did.
func bodyTooLarge(w http.ResponseWriter, s *Server, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	writeJSONStatus(w, http.StatusRequestEntityTooLarge, BodyTooLargeError{
		Error:        fmt.Sprintf("request body exceeds the %d-byte limit", s.bodyLimit()),
		MaxBodyBytes: s.bodyLimit(),
	})
	return true
}

// BgEstimateResponse reports a platform's registered background-traffic
// estimate.
type BgEstimateResponse struct {
	Platform string      `json:"platform"`
	Source   string      `json:"source,omitempty"`
	Flows    [][2]string `json:"flows"`
}

// handleBgEstimateGet returns the flows bg_estimate scenario mutations
// would inject:
//
//	GET /pilgrim/bg_estimate/g5k_test
func (s *Server) handleBgEstimateGet(w http.ResponseWriter, r *http.Request) {
	if !s.ownsPlatform(w, r) {
		return
	}
	name := r.PathValue("platform")
	if _, ok := s.platforms.Get(name); !ok {
		http.Error(w, fmt.Sprintf("unknown platform %q", name), http.StatusNotFound)
		return
	}
	flows, source, _ := s.platforms.BackgroundEstimate(name)
	if flows == nil {
		flows = [][2]string{}
	}
	writeJSON(w, BgEstimateResponse{Platform: name, Source: source, Flows: flows})
}

// handleBgEstimatePost (re)computes a platform's background-traffic
// estimate from the metrology service's interface counters — the
// bgtraffic.FromMetrology wiring — and registers it, provenance-tagged,
// for bg_estimate scenarios:
//
//	POST /pilgrim/bg_estimate/g5k_test?tool=ganglia&begin=B&end=E
func (s *Server) handleBgEstimatePost(w http.ResponseWriter, r *http.Request) {
	if !s.ownsPlatform(w, r) {
		return
	}
	name := r.PathValue("platform")
	if _, ok := s.platforms.Get(name); !ok {
		http.Error(w, fmt.Sprintf("unknown platform %q", name), http.StatusNotFound)
		return
	}
	q, ok := parseQuery(w, r)
	if !ok {
		return
	}
	tool := q.Get("tool")
	if tool == "" {
		http.Error(w, "tool parameter required", http.StatusBadRequest)
		return
	}
	begin, err := parseTimestamp(q.Get("begin"))
	if err != nil {
		http.Error(w, fmt.Sprintf("begin: %v", err), http.StatusBadRequest)
		return
	}
	end, err := parseTimestamp(q.Get("end"))
	if err != nil {
		http.Error(w, fmt.Sprintf("end: %v", err), http.StatusBadRequest)
		return
	}
	if end <= begin {
		http.Error(w, "end must be after begin", http.StatusBadRequest)
		return
	}
	if _, err := s.platforms.EstimateBackgroundFromMetrology(name, s.metrics, tool, begin, end, bgtraffic.DefaultConfig()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flows, source, _ := s.platforms.BackgroundEstimate(name)
	if flows == nil {
		flows = [][2]string{}
	}
	writeJSON(w, BgEstimateResponse{Platform: name, Source: source, Flows: flows})
}

// handleSelectFastest implements the hypothesis-selection extension:
//
//	GET /pilgrim/select_fastest/g5k_test?hypothesis=src,dst,size[;src,dst,size...]&hypothesis=...[&at=T]
func (s *Server) handleSelectFastest(w http.ResponseWriter, r *http.Request) {
	ctx, q, cleanup, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer cleanup()
	entry, ok := s.platformOf(w, r, q.Get("at"))
	if !ok {
		return
	}
	var hyps []Hypothesis
	for _, hv := range q["hypothesis"] {
		var h Hypothesis
		for _, tv := range strings.Split(hv, ";") {
			t, err := parseTransferParam(tv)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			h.Transfers = append(h.Transfers, t)
		}
		hyps = append(hyps, h)
	}
	if len(hyps) == 0 {
		http.Error(w, "at least one hypothesis parameter required", http.StatusBadRequest)
		return
	}
	best, results, err := s.pool.Load().SelectFastestCachedCtx(
		ctx, s.cache.Load(), r.PathValue("platform"), entry, hyps)
	if err != nil {
		if finishCtx(w, err) {
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.writeSelectFastest(w, best, results)
}

// handleWorkflow implements the workflow-forecast extension (future work
// §VI): POST a JSON workflow DAG of compute and transfer tasks, receive
// the simulated schedule and makespan.
func (s *Server) handleWorkflow(w http.ResponseWriter, r *http.Request) {
	ctx, q, cleanup, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer cleanup()
	entry, ok := s.platformOf(w, r, q.Get("at"))
	if !ok {
		return
	}
	var wf workflow.Workflow
	if !s.decodeJSONBody(w, r, "workflow", &wf, nil) {
		return
	}
	if err := ctx.Err(); err != nil {
		finishCtx(w, err)
		return
	}
	forecast, err := workflow.Predict(entry.snapshot(), entry.Config, &wf)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, forecast)
}

// LinkObservation is one measured link revision: an element of the
// update_links request body and of a campaign observe event. Omitted
// fields keep the link's current value.
type LinkObservation struct {
	Link      string   `json:"link"`
	Bandwidth *float64 `json:"bandwidth,omitempty"` // bytes per second
	Latency   *float64 `json:"latency,omitempty"`   // seconds, one way
}

// Update turns the observation into the link revision it carries, or
// says why it is refused: it must name a link and carry a bandwidth or a
// latency, and every value it carries must take effect under the
// observation rule (platform.LinkUpdate.Overlay) — an observation that
// would silently keep a value it states, a zero bandwidth above all, is
// an error, never a link failure.
func (o LinkObservation) Update() (platform.LinkUpdate, error) {
	if o.Link == "" {
		return platform.LinkUpdate{}, errors.New("missing link id")
	}
	if o.Bandwidth == nil && o.Latency == nil {
		return platform.LinkUpdate{}, errors.New("bandwidth or latency required")
	}
	u := platform.LinkUpdate{Link: o.Link, Bandwidth: -1, Latency: -1}
	if o.Bandwidth != nil {
		u.Bandwidth = *o.Bandwidth
	}
	if o.Latency != nil {
		u.Latency = *o.Latency
	}
	applied := u.Overlay(0)
	if o.Bandwidth != nil && math.IsNaN(applied.Bandwidth) {
		return platform.LinkUpdate{}, fmt.Errorf("invalid bandwidth %v", *o.Bandwidth)
	}
	if o.Latency != nil && math.IsNaN(applied.Latency) {
		return platform.LinkUpdate{}, fmt.Errorf("invalid latency %v", *o.Latency)
	}
	return u, nil
}

// UpdateLinksRequest is the timestamped update_links body: when the
// observation was taken (Unix seconds; as sent by clients — the server
// additionally accepts "2006-01-02 15:04:05" strings and defaults to the
// arrival time when omitted) and who measured it.
type UpdateLinksRequest struct {
	Time    int64             `json:"time,omitempty"`
	Source  string            `json:"source,omitempty"`
	Updates []LinkObservation `json:"updates"`
}

// UpdateLinksResponse reports the epoch an observation batch published.
type UpdateLinksResponse struct {
	Platform string `json:"platform"`
	Epoch    uint64 `json:"epoch"`
	Updated  int    `json:"links_updated"`
	Time     int64  `json:"time"`
	Source   string `json:"source"`
	Depth    int    `json:"timeline_depth"`
}

// TimelineStatsResponse is the timeline_stats answer: the platform's
// retained observation history plus the server's horizon cap and the
// count of observation batches rejected for naming unknown links.
type TimelineStatsResponse struct {
	Platform          string `json:"platform"`
	HorizonMaxSeconds int64  `json:"horizon_max_seconds"`
	RejectedUpdates   uint64 `json:"rejected_updates"`
	platform.TimelineStats
}

// UpdateLinksError is the structured 400 body update_links answers when a
// batch names links the platform does not have: the offending names are
// listed explicitly (instead of a silent drop or an opaque first-error
// string) and the rejection is counted in timeline_stats.
type UpdateLinksError struct {
	Platform     string   `json:"platform"`
	Error        string   `json:"error"`
	UnknownLinks []string `json:"unknown_links"`
}

// handleUpdateLinks closes the paper's measure→update→forecast loop: a
// metrology agent POSTs measured link state, the observation is appended
// to the platform's epoch timeline (and feeds its forecaster bank), and
// every subsequent forecast (and cache key) is answered against the
// revised picture.
//
//	POST /pilgrim/update_links/g5k_test
//	{"time": 1336111200, "source": "iperf",
//	 "updates": [{"link": "sagittaire-1.lyon.grid5000.fr_nic", "bandwidth": 9.1e7}]}
//
// time is Unix seconds or "2006-01-02 15:04:05" (UTC), as a number or a
// JSON string; absent or null, it is the arrival time. It must not
// precede the newest recorded observation.
// source is free provenance text (default "update_links"). Each update
// carries bandwidth in bytes/s and/or latency in seconds; omitted fields
// keep the current value. A bare JSON array of updates (the pre-timeline
// body) is still accepted and stamped with the arrival time. The answer
// reports the published epoch.
func (s *Server) handleUpdateLinks(w http.ResponseWriter, r *http.Request) {
	if !s.ownsPlatform(w, r) {
		return
	}
	name := r.PathValue("platform")
	entry, ok := s.platforms.Get(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown platform %q", name), http.StatusNotFound)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.bodyLimit()))
	if err != nil {
		if bodyTooLarge(w, s, err) {
			return
		}
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	when := time.Now().Unix()
	source := "update_links"
	var body []LinkObservation
	if trimmed := bytes.TrimLeft(raw, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		// Legacy body: a bare update array, stamped with the arrival time.
		if err := json.Unmarshal(raw, &body); err != nil {
			http.Error(w, fmt.Sprintf("decoding link updates: %v", err), http.StatusBadRequest)
			return
		}
	} else {
		var req struct {
			Time    json.RawMessage   `json:"time"`
			Source  string            `json:"source"`
			Updates []LinkObservation `json:"updates"`
		}
		if err := json.Unmarshal(raw, &req); err != nil {
			http.Error(w, fmt.Sprintf("decoding link updates: %v", err), http.StatusBadRequest)
			return
		}
		// null means absent; a JSON string is unquoted as encoding/json
		// does (escapes included); a number goes to parseTimestamp as is.
		if len(req.Time) > 0 && string(req.Time) != "null" {
			text := string(req.Time)
			if req.Time[0] == '"' {
				// Cannot fail: json.Unmarshal has already validated req.Time.
				_ = json.Unmarshal(req.Time, &text)
			}
			ts, err := parseTimestamp(text)
			if err != nil {
				http.Error(w, fmt.Sprintf("time: %v", err), http.StatusBadRequest)
				return
			}
			when = ts
		}
		if req.Source != "" {
			source = req.Source
		}
		body = req.Updates
	}
	if len(body) == 0 {
		http.Error(w, "at least one link update required", http.StatusBadRequest)
		return
	}
	updates := make([]platform.LinkUpdate, len(body))
	for i, o := range body {
		u, err := o.Update()
		if err != nil {
			if o.Link == "" {
				http.Error(w, fmt.Sprintf("update %d: %v", i, err), http.StatusBadRequest)
			} else {
				http.Error(w, fmt.Sprintf("update %d (%s): %v", i, o.Link, err), http.StatusBadRequest)
			}
			return
		}
		updates[i] = u
	}
	// Unknown links reject the whole batch with a structured answer
	// naming every offender (both body forms; historically the legacy
	// array body surfaced only an opaque first-mismatch error), and the
	// rejection is counted in timeline_stats.
	snap := entry.snapshot()
	var unknown []string
	for _, u := range updates {
		if _, ok := snap.LinkIndex(u.Link); !ok {
			unknown = append(unknown, u.Link)
		}
	}
	if len(unknown) > 0 {
		s.platforms.RecordUpdateReject(name)
		writeJSONStatus(w, http.StatusBadRequest, UpdateLinksError{
			Platform:     name,
			Error:        fmt.Sprintf("%d of %d updates name unknown links", len(unknown), len(updates)),
			UnknownLinks: unknown,
		})
		return
	}
	snap, err = s.platforms.ObserveLinkState(name, when, source, updates)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	depth, _ := s.platforms.TimelineDepth(name)
	writeJSON(w, UpdateLinksResponse{
		Platform: name, Epoch: snap.Epoch(), Updated: len(updates),
		Time: when, Source: source, Depth: depth,
	})
}

// handleTimelineStats reports the named platform's observation history:
//
//	GET /pilgrim/timeline_stats/g5k_test
//
// The answer lists the retained timestamped epochs (id, provenance,
// links changed), the history bound, eviction counters, and the horizon
// cap applied to at= queries.
func (s *Server) handleTimelineStats(w http.ResponseWriter, r *http.Request) {
	if !s.ownsPlatform(w, r) {
		return
	}
	name := r.PathValue("platform")
	st, ok := s.platforms.TimelineStats(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown platform %q", name), http.StatusNotFound)
		return
	}
	writeJSON(w, TimelineStatsResponse{
		Platform:          name,
		HorizonMaxSeconds: int64(s.platforms.ForecastHorizon() / time.Second),
		RejectedUpdates:   s.platforms.UpdateRejects(name),
		TimelineStats:     st,
	})
}

// handleRRD implements the metrology service (§IV-C1):
//
//	GET /pilgrim/rrd/ganglia/lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd/
//	    ?begin=2012-05-04%2008:00:00&end=2012-05-04%2008:01:00
//
// The answer is a JSON array of [timestamp, value] pairs from the most
// accurate archives available.
func (s *Server) handleRRD(w http.ResponseWriter, r *http.Request) {
	mp, err := metrology.ParseMetricPath(strings.Join([]string{
		r.PathValue("tool"), r.PathValue("site"), r.PathValue("host"), r.PathValue("metric"),
	}, "/"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	db, ok := s.metrics.Database(mp)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown metric %s", mp), http.StatusNotFound)
		return
	}
	q, ok := parseQuery(w, r)
	if !ok {
		return
	}
	begin, err := parseTimestamp(q.Get("begin"))
	if err != nil {
		http.Error(w, fmt.Sprintf("begin: %v", err), http.StatusBadRequest)
		return
	}
	end, err := parseTimestamp(q.Get("end"))
	if err != nil {
		http.Error(w, fmt.Sprintf("end: %v", err), http.StatusBadRequest)
		return
	}
	if end <= begin {
		http.Error(w, "end must be after begin", http.StatusBadRequest)
		return
	}
	series, err := db.FetchBest(rrd.Average, begin, end)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The paper's answer format: [[ts, value], ...], skipping unknowns.
	out := make([][2]float64, 0, len(series.Rows))
	for i, row := range series.Rows {
		if len(row) == 0 || math.IsNaN(row[0]) {
			continue
		}
		out = append(out, [2]float64{float64(series.Start + int64(i)*series.Step), row[0]})
	}
	writeJSON(w, out)
}

// parseTimestamp accepts Unix seconds or "2006-01-02 15:04:05" (UTC), the
// format of the paper's example query.
func parseTimestamp(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("missing timestamp")
	}
	if ts, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ts, nil
	}
	t, err := time.Parse("2006-01-02 15:04:05", s)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q is neither Unix seconds nor YYYY-MM-DD HH:MM:SS", s)
	}
	return t.UTC().Unix(), nil
}

func writeJSONStatus(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		// Response already begun; nothing to report to the client.
		return
	}
}
