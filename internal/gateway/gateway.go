// Package gateway implements the pilgrimgw control plane: a stateless
// HTTP front for a fleet of pilgrimd workers. Platform-scoped requests
// are proxied to the shard that owns the platform on the rendezvous
// ring (internal/shard); fleet-wide reads (platform listings,
// cache_stats) scatter-gather across every shard with bounded fan-out
// and per-shard deadlines, degrading to partial results when a shard is
// down instead of failing the whole request.
//
// The gateway holds no routing state beyond the shard map itself —
// ownership is a pure function of (membership, platform name) — so any
// number of gateways can front the same fleet without coordination, and
// a gateway restart loses nothing.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/shard"
)

// Defaults for Options zero values.
const (
	DefaultFanTimeout   = 10 * time.Second
	DefaultMaxFanOut    = 8
	DefaultMaxBodyBytes = 8 << 20
)

// Options configures a Gateway.
type Options struct {
	// Source is the shard-map membership source; Reload re-reads it.
	Source shard.Source
	// FanTimeout bounds each shard's leg of a scatter-gather read
	// (0: DefaultFanTimeout). Proxied platform requests are NOT bounded
	// by it — evaluate batches legitimately run long — they inherit the
	// caller's context.
	FanTimeout time.Duration
	// MaxFanOut bounds how many shards a scatter-gather queries
	// concurrently (0: DefaultMaxFanOut).
	MaxFanOut int
	// MaxBodyBytes caps a proxied request body; bodies are buffered so
	// retries can replay them (0: DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// Retry is applied to every upstream call; zero value selects the
	// pilgrim client defaults.
	Retry pilgrim.RetryPolicy
	// Transport overrides the upstream transport (nil: a
	// pilgrim.NewFleetTransport sized for the fan-out).
	Transport *http.Transport
}

// Gateway routes Pilgrim API traffic across a sharded pilgrimd fleet.
type Gateway struct {
	mux       *http.ServeMux
	table     *shard.Table
	source    shard.Source
	transport *http.Transport
	hc        *http.Client
	retry     pilgrim.RetryPolicy

	fanTimeout time.Duration
	maxFan     int
	maxBody    int64

	reloads     atomic.Uint64
	fanouts     atomic.Uint64
	fanErrors   atomic.Uint64
	proxyErrors atomic.Uint64
	coalesced   atomic.Uint64

	mu      sync.Mutex
	proxied map[string]uint64 // per-shard proxied request count

	// flightMu guards flights, the in-flight scatter-gather table:
	// concurrent reads of the same path share one fan-out instead of
	// multiplying load on every shard (mirrors the workers' forecast
	// coalescing layer, internal/pilgrim/flight.go).
	flightMu sync.Mutex
	flights  map[string]*gatherFlight
}

// gatherFlight is one in-flight scatter-gather other requests wait on;
// legs is valid once done closes.
type gatherFlight struct {
	done chan struct{}
	legs []leg
}

// New builds a gateway over the membership in opts.Source.
func New(opts Options) (*Gateway, error) {
	m, err := opts.Source.Load()
	if err != nil {
		return nil, fmt.Errorf("gateway: loading shard map: %w", err)
	}
	ring, err := shard.NewRing(m)
	if err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	g := &Gateway{
		mux:        http.NewServeMux(),
		table:      shard.NewTable(ring),
		source:     opts.Source,
		retry:      opts.Retry,
		fanTimeout: opts.FanTimeout,
		maxFan:     opts.MaxFanOut,
		maxBody:    opts.MaxBodyBytes,
		proxied:    make(map[string]uint64),
		flights:    make(map[string]*gatherFlight),
	}
	if g.fanTimeout <= 0 {
		g.fanTimeout = DefaultFanTimeout
	}
	if g.maxFan <= 0 {
		g.maxFan = DefaultMaxFanOut
	}
	if g.maxBody <= 0 {
		g.maxBody = DefaultMaxBodyBytes
	}
	g.transport = opts.Transport
	if g.transport == nil {
		g.transport = pilgrim.NewFleetTransport(4 * g.maxFan)
	}
	// No client-level timeout: proxied evaluates inherit the caller's
	// context, scatter-gather legs carry their own deadline.
	g.hc = &http.Client{Transport: g.transport}

	g.mux.HandleFunc("GET /pilgrim/platforms", g.handlePlatforms)
	g.mux.HandleFunc("GET /pilgrim/cache_stats", g.handleCacheStats)
	g.mux.HandleFunc("GET /pilgrim/shards", g.handleShards)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	for _, route := range []string{
		"GET /pilgrim/predict_transfers/{platform}",
		"GET /pilgrim/select_fastest/{platform}",
		"POST /pilgrim/predict_workflow/{platform}",
		"POST /pilgrim/evaluate/{platform}",
		"GET /pilgrim/bg_estimate/{platform}",
		"POST /pilgrim/bg_estimate/{platform}",
		"POST /pilgrim/update_links/{platform}",
		"GET /pilgrim/timeline_stats/{platform}",
	} {
		g.mux.HandleFunc(route, g.handleProxy)
	}
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// Ring is the current routing ring (for tests and tooling).
func (g *Gateway) Ring() *shard.Ring { return g.table.Ring() }

// Reload re-reads the membership source and swaps the ring if it
// changed — the SIGHUP path. In-flight requests keep the ring they
// started with.
func (g *Gateway) Reload() error {
	m, err := g.source.Load()
	if err != nil {
		return fmt.Errorf("gateway: reloading shard map: %w", err)
	}
	cur := g.table.Ring()
	old := &shard.Map{Workers: cur.Workers()}
	if m.Equal(old) {
		return nil
	}
	ring, err := shard.NewRing(m)
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	g.table.Store(ring)
	g.reloads.Add(1)
	return nil
}

// Close releases pooled upstream connections. Call it after the HTTP
// server has drained so in-flight proxied responses are not cut.
func (g *Gateway) Close() {
	g.transport.CloseIdleConnections()
}

// shardError is the structured per-shard failure the gateway returns
// instead of failing a whole scatter-gather, and the body of a 502 when
// the owning shard of a proxied request is unreachable.
type shardError struct {
	Error string `json:"error"`
	Shard string `json:"shard"`
	URL   string `json:"url"`
}

// handleProxy forwards a platform-scoped request to the owning shard.
// The body is buffered so the retry policy can replay it; the upstream
// answer — whatever its status — is streamed back with its headers, so
// admission shedding (429 + Retry-After) and ownership rejections (421)
// reach the client intact.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	owner := g.table.Owner(r.PathValue("platform"))
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, g.maxBody+1))
		if err != nil {
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > g.maxBody {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", g.maxBody), http.StatusRequestEntityTooLarge)
			return
		}
	}
	ctype := r.Header.Get("Content-Type")
	u := owner.URL + r.URL.RequestURI()
	resp, err := g.retry.Do(g.hc, func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
		if err != nil {
			return nil, err
		}
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		return req, nil
	})
	g.countProxied(owner.Name)
	if err != nil {
		g.proxyErrors.Add(1)
		writeJSONStatus(w, http.StatusBadGateway, shardError{
			Error: fmt.Sprintf("shard %q unreachable: %v", owner.Name, err),
			Shard: owner.Name, URL: owner.URL,
		})
		return
	}
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("X-Pilgrim-Shard", owner.Name)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (g *Gateway) countProxied(name string) {
	g.mu.Lock()
	g.proxied[name]++
	g.mu.Unlock()
}

// hopByHop are connection-level headers that must not be forwarded.
var hopByHop = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Authenticate": true,
	"Proxy-Authorization": true, "Te": true, "Trailer": true,
	"Transfer-Encoding": true, "Upgrade": true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// leg is one shard's answer to a scatter-gather read.
type leg struct {
	worker shard.Worker
	body   []byte
	err    error
}

// gather answers a fleet-wide read, coalescing concurrent requests for
// the same path onto one in-flight fan-out: the first requester
// scatters (detached from its own cancellation, so a leader hanging up
// doesn't poison the shared answer — each leg still carries the
// per-shard deadline), duplicates wait for its legs but honor their own
// deadlines. Stats endpoints are read-only and shard-local, so a
// coalesced answer is exactly as fresh as the racing reads it replaces.
func (g *Gateway) gather(ctx context.Context, path string) []leg {
	g.flightMu.Lock()
	if f := g.flights[path]; f != nil {
		g.flightMu.Unlock()
		g.coalesced.Add(1)
		select {
		case <-f.done:
			return f.legs
		case <-ctx.Done():
			workers := g.table.Ring().Workers()
			legs := make([]leg, len(workers))
			for i, wk := range workers {
				legs[i] = leg{worker: wk, err: ctx.Err()}
			}
			return legs
		}
	}
	f := &gatherFlight{done: make(chan struct{})}
	g.flights[path] = f
	g.flightMu.Unlock()
	defer func() {
		g.flightMu.Lock()
		delete(g.flights, path)
		g.flightMu.Unlock()
		close(f.done)
	}()
	f.legs = g.scatter(context.WithoutCancel(ctx), path)
	return f.legs
}

// scatter queries path on every shard with bounded parallelism and a
// per-shard deadline, returning one leg per worker in ring order. A
// down shard yields a leg with err set — degradation, not failure.
func (g *Gateway) scatter(ctx context.Context, path string) []leg {
	g.fanouts.Add(1)
	workers := g.table.Ring().Workers()
	legs := make([]leg, len(workers))
	sem := make(chan struct{}, g.maxFan)
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk shard.Worker) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			legCtx, cancel := context.WithTimeout(ctx, g.fanTimeout)
			defer cancel()
			body, err := g.getShard(legCtx, wk, path)
			if err != nil {
				g.fanErrors.Add(1)
			}
			legs[i] = leg{worker: wk, body: body, err: err}
		}(i, wk)
	}
	wg.Wait()
	return legs
}

// getShard performs one GET against a shard under the retry policy and
// returns the 200 body.
func (g *Gateway) getShard(ctx context.Context, wk shard.Worker, path string) ([]byte, error) {
	resp, err := g.retry.Do(g.hc, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, wk.URL+path, nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, g.maxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// handlePlatforms unions platform listings across the fleet:
//
//	GET /pilgrim/platforms
//
// The answer stays a plain sorted JSON array — exactly what a single
// pilgrimd serves, so pilgrim.Client.Platforms works unchanged through
// the gateway. Shards that failed are named in the X-Pilgrim-Partial
// header; /pilgrim/shards has the detail.
func (g *Gateway) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	legs := g.gather(r.Context(), "/pilgrim/platforms")
	seen := map[string]bool{}
	var failed []string
	for _, l := range legs {
		if l.err != nil {
			failed = append(failed, l.worker.Name)
			continue
		}
		var names []string
		if err := json.Unmarshal(l.body, &names); err != nil {
			failed = append(failed, l.worker.Name)
			continue
		}
		for _, n := range names {
			seen[n] = true
		}
	}
	union := make([]string, 0, len(seen))
	for n := range seen {
		union = append(union, n)
	}
	sort.Strings(union)
	if len(failed) > 0 {
		w.Header().Set("X-Pilgrim-Partial", strings.Join(failed, ","))
	}
	writeJSON(w, union)
}

// ShardCacheStats is one shard's leg of the fleet cache_stats answer.
type ShardCacheStats struct {
	Shard string `json:"shard"`
	URL   string `json:"url"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Stats is the shard's own cache_stats document, verbatim.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// FleetCacheStats is the gateway's cache_stats answer: the fleet-summed
// forecast-cache counters inline (so pilgrim.Client.CacheStats decodes
// it unchanged) plus a per-shard envelope.
type FleetCacheStats struct {
	pilgrim.CacheStats
	Shards []ShardCacheStats `json:"shards"`
}

// handleCacheStats sums forecast-cache counters across the fleet:
//
//	GET /pilgrim/cache_stats
//
// Down shards appear in the envelope with ok=false and are excluded
// from the sums.
func (g *Gateway) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	legs := g.gather(r.Context(), "/pilgrim/cache_stats")
	out := FleetCacheStats{Shards: make([]ShardCacheStats, 0, len(legs))}
	for _, l := range legs {
		sc := ShardCacheStats{Shard: l.worker.Name, URL: l.worker.URL}
		if l.err != nil {
			sc.Error = l.err.Error()
			out.Shards = append(out.Shards, sc)
			continue
		}
		var cs pilgrim.CacheStats
		if err := json.Unmarshal(l.body, &cs); err != nil {
			sc.Error = "decoding cache_stats: " + err.Error()
			out.Shards = append(out.Shards, sc)
			continue
		}
		sc.OK = true
		sc.Stats = json.RawMessage(l.body)
		out.Shards = append(out.Shards, sc)
		out.Hits += cs.Hits
		out.Misses += cs.Misses
		out.CoalescedHits += cs.CoalescedHits
		out.RenderedHits += cs.RenderedHits
		out.Size += cs.Size
		out.Capacity += cs.Capacity
	}
	writeJSON(w, out)
}

// ShardStatus is one worker's row in the membership/health listing.
type ShardStatus struct {
	Shard     string   `json:"shard"`
	URL       string   `json:"url"`
	OK        bool     `json:"ok"`
	Error     string   `json:"error,omitempty"`
	Platforms []string `json:"platforms,omitempty"`
}

// handleShards reports fleet membership and per-shard health:
//
//	GET /pilgrim/shards
//
// Health is a live platforms probe, so the listing doubles as the
// degradation report for partial scatter-gather answers.
func (g *Gateway) handleShards(w http.ResponseWriter, r *http.Request) {
	legs := g.gather(r.Context(), "/pilgrim/platforms")
	out := struct {
		Shards []ShardStatus `json:"shards"`
	}{Shards: make([]ShardStatus, 0, len(legs))}
	for _, l := range legs {
		st := ShardStatus{Shard: l.worker.Name, URL: l.worker.URL}
		if l.err != nil {
			st.Error = l.err.Error()
		} else if err := json.Unmarshal(l.body, &st.Platforms); err != nil {
			st.Error = "decoding platforms: " + err.Error()
		} else {
			st.OK = true
		}
		out.Shards = append(out.Shards, st)
	}
	writeJSON(w, out)
}

// handleMetrics is the gateway's own Prometheus scrape endpoint:
//
//	GET /metrics
//
// Worker metrics are scraped from each pilgrimd directly; the gateway
// exports only its control-plane counters.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := pilgrim.NewExposition()
	e.Add("pilgrim_gateway_shards", "Workers in the current shard map.", pilgrim.Gauge, float64(g.table.Ring().Len()))
	e.Add("pilgrim_gateway_reloads_total", "Shard-map reloads that changed membership.", pilgrim.Counter, float64(g.reloads.Load()))
	e.Add("pilgrim_gateway_fanouts_total", "Scatter-gather reads served.", pilgrim.Counter, float64(g.fanouts.Load()))
	e.Add("pilgrim_gateway_coalesced_fanouts_total", "Fleet-wide reads answered by another request's in-flight fan-out.", pilgrim.Counter, float64(g.coalesced.Load()))
	e.Add("pilgrim_gateway_fan_shard_errors_total", "Scatter-gather legs that failed (partial answers).", pilgrim.Counter, float64(g.fanErrors.Load()))
	e.Add("pilgrim_gateway_proxy_errors_total", "Proxied requests whose owning shard was unreachable (502).", pilgrim.Counter, float64(g.proxyErrors.Load()))
	g.mu.Lock()
	for name, n := range g.proxied {
		e.Add("pilgrim_gateway_proxied_total", "Platform requests proxied, by owning shard.", pilgrim.Counter, float64(n), pilgrim.Label{Name: "shard", Value: name})
	}
	g.mu.Unlock()
	e.SortFamily("pilgrim_gateway_proxied_total")
	e.WriteTo(w)
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
