package pilgrim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"pilgrim/internal/keyed"
)

// ForecastCache memoizes PNFS predictions behind a bounded LRU. A
// prediction is a pure function of (platform epoch, transfer multiset,
// background-flow multiset): transfers all depart at simulated time 0, so
// two requests that differ only in parameter order are the same
// simulation. The cache canonicalizes requests before keying, runs the
// simulation in canonical order on a miss, and permutes cached answers
// back to request order on a hit — repeated scheduler queries (the
// paper's RMS polling pattern) skip simulation entirely.
//
// A second index, rendered, maps an exact request line to the response
// body already written for it, so a poller re-issuing the same URL skips
// canonicalization and encoding too (see renderKey).
type ForecastCache struct {
	mu sync.Mutex
	// entries is the LRU of canonical answers and the flight table of the
	// keys being simulated (internal/keyed), guarded by mu: concurrent
	// identical requests share one simulation instead of racing to fill
	// the LRU. Flights run even when capacity <= 0 disables the LRU.
	entries      *keyed.Cache[forecastKey, cacheEntry]
	rendered     map[renderKey]rendering
	renderedHits uint64 // the subset of hits answered from rendered
}

// cacheEntry is one memoized answer, predictions in canonical order. The
// key embeds the snapshot epoch the answer was simulated against; epochs
// are process-unique and never reused, so an entry can neither alias nor
// outlive the network picture that produced it — no pointers need
// pinning.
type cacheEntry struct {
	preds []Prediction
	// renderings lists this entry's keys in ForecastCache.rendered (at
	// most maxRenderingsPerEntry), so eviction can drop them.
	renderings []renderKey
}

// NewForecastCache returns a cache holding up to capacity distinct
// queries. A capacity <= 0 disables caching: every PredictCtx simulates and
// counts as a miss.
func NewForecastCache(capacity int) *ForecastCache {
	fc := &ForecastCache{rendered: make(map[renderKey]rendering)}
	fc.entries = keyed.New(&fc.mu, capacity, fc.forget)
	return fc
}

// CacheStats is the hit/miss accounting surfaced by the server.
// CoalescedHits counts requests answered by waiting on another
// request's in-flight simulation — neither an LRU hit nor a paid miss.
// RenderedHits is the subset of Hits answered from the exact-request
// index (the stored response body, no canonicalization or encode).
type CacheStats struct {
	Hits          uint64 `json:"hits" metric:"pilgrim_forecast_cache_hits_total" help:"Forecast cache hits."`
	Misses        uint64 `json:"misses" metric:"pilgrim_forecast_cache_misses_total" help:"Forecast cache misses (each paid one simulation)."`
	CoalescedHits uint64 `json:"coalesced_hits" metric:"pilgrim_forecast_cache_coalesced_hits_total" help:"Requests answered by another request's in-flight simulation."`
	RenderedHits  uint64 `json:"rendered_hits" metric:"pilgrim_forecast_cache_rendered_hits_total" help:"Forecast cache hits answered from the stored response body of the exact request line (a subset of hits)."`
	Size          int    `json:"size" metric:"pilgrim_forecast_cache_entries" help:"Forecast cache entries currently held."`
	Capacity      int    `json:"capacity" metric:"pilgrim_forecast_cache_capacity" help:"Forecast cache capacity (-forecast-cache)."`
}

// Stats returns a snapshot of the cache counters.
func (fc *ForecastCache) Stats() CacheStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	n := fc.entries.Counts()
	return CacheStats{Hits: n.Hits, Misses: n.Misses, CoalescedHits: n.Coalesced, RenderedHits: fc.renderedHits,
		Size: fc.entries.Len(), Capacity: fc.entries.Capacity()}
}

// canonicalize returns the indices of transfers sorted by (Src, Dst,
// Size) — the canonical simulation order. The sort is stable, so equal
// transfers keep request order and the permutation is a pure function of
// the request.
func canonicalize(transfers []TransferRequest) []int {
	order := make([]int, len(transfers))
	for i := range order {
		order[i] = i
	}
	compare := func(a, b int) int {
		ta, tb := &transfers[a], &transfers[b]
		if c := strings.Compare(ta.Src, tb.Src); c != 0 {
			return c
		}
		if c := strings.Compare(ta.Dst, tb.Dst); c != 0 {
			return c
		}
		switch {
		case ta.Size < tb.Size:
			return -1
		case ta.Size > tb.Size:
			return 1
		}
		return 0
	}
	// No reflect swapper (sort.SliceStable paid one on every call of the QPS
	// path), no allocation, and an insertion sort below 20 elements.
	slices.SortStableFunc(order, compare)
	return order
}

// A cached answer is keyed by what it is a pure function of: the picture
// (platform name, snapshot epoch, model config) and the query (transfer
// multiset in canonical order, sizes by exact bit pattern, then the sorted
// background multiset). Epochs are globally unique per network picture, so
// a link-state update (or a platform rebuild) naturally retires every
// cached answer computed against the old state, and two entries registered
// under the same name with different model configurations never share
// answers. The key is a comparable struct, not a string: the picture
// costs nothing to build, and the evaluate layer spells a query once per
// request and re-keys it per scenario epoch by swapping the picture.

// pictureKey identifies one network picture under one model config.
type pictureKey struct {
	platform string
	epoch    uint64
	config   configBits
}

// configBits is sim.Config with its floats as bit patterns. A float NaN
// never equals itself, so a map key holding one could be stored but never
// found or deleted; bit patterns always compare, and keep -0 and +0 (which
// simulate differently) apart.
type configBits struct {
	bandwidthFactor, latencyFactor, tcpGamma, minRTT uint64
	gammaUsesLatencyFactor                           bool
}

func pictureKeyOf(platform string, entry PlatformEntry) pictureKey {
	c := entry.Config
	return pictureKey{platform: platform, epoch: entry.snapshot().Epoch(), config: configBits{
		bandwidthFactor:        math.Float64bits(c.BandwidthFactor),
		latencyFactor:          math.Float64bits(c.LatencyFactor),
		tcpGamma:               math.Float64bits(c.TCPGamma),
		minRTT:                 math.Float64bits(c.MinRTT),
		gammaUsesLatencyFactor: c.GammaUsesLatencyFactor,
	}}
}

// forecastKey is the canonical lookup key of the LRU and the flight table.
type forecastKey struct {
	pictureKey
	query string
}

// queryKey spells the query half of a forecastKey — the transfers in the
// canonical order given, then the background, already canonical — into one
// exactly-sized string.
func queryKey(transfers []TransferRequest, order []int, background [][2]string) string {
	n := 0
	for i := range transfers {
		n += len(transfers[i].Src) + len(transfers[i].Dst) + 3 + 16
	}
	for _, p := range background {
		n += len(p[0]) + len(p[1]) + 2
	}
	var b strings.Builder
	b.Grow(n)
	var bits [16]byte
	for _, i := range order {
		t := &transfers[i]
		b.WriteByte(0x1e)
		b.WriteString(t.Src)
		b.WriteByte(0x1f)
		b.WriteString(t.Dst)
		b.WriteByte(0x1f)
		b.Write(strconv.AppendUint(bits[:0], math.Float64bits(t.Size), 16))
	}
	for _, p := range background {
		b.WriteByte(0x1d)
		b.WriteString(p[0])
		b.WriteByte(0x1f)
		b.WriteString(p[1])
	}
	return b.String()
}

// canonicalBackground returns the background multiset in canonical
// (sorted) order. Background flows are part of the canonical workload:
// simulating them in sorted order means the answer for a logical workload
// does not depend on which bg parameter ordering happened to arrive
// first.
func canonicalBackground(background [][2]string) [][2]string {
	if len(background) > 1 {
		background = append([][2]string(nil), background...)
		slices.SortFunc(background, func(a, b [2]string) int {
			if c := strings.Compare(a[0], b[0]); c != 0 {
				return c
			}
			return strings.Compare(a[1], b[1])
		})
	}
	return background
}

// canonicalQuery is one prediction workload in canonical form: the cache
// key, the sorted background flows, and the permutation that sorts the
// transfers into canonical simulation order (and maps canonical results
// back to request order). Two requests with equal keys are the same
// (epoch, config, query) triple and pay for one simulation between them.
type canonicalQuery struct {
	key        forecastKey
	background [][2]string
	order      []int
}

// canonicalizeQuery lowers one request into canonical form. The entry
// must already be pinned (WithSnapshot) so the key and the simulation see
// the same epoch.
func canonicalizeQuery(platform string, entry PlatformEntry, transfers []TransferRequest, background [][2]string) canonicalQuery {
	order := canonicalize(transfers)
	background = canonicalBackground(background)
	return canonicalQuery{
		key:        forecastKey{pictureKeyOf(platform, entry), queryKey(transfers, order, background)},
		background: background,
		order:      order,
	}
}

// forget is the LRU's eviction hook: an evicted answer takes its
// renderings with it. fc.mu held.
func (fc *ForecastCache) forget(_ forecastKey, ent cacheEntry) {
	for _, k := range ent.renderings {
		delete(fc.rendered, k)
	}
}

// lead probes the LRU and the flight table under one acquisition of fc.mu
// (keyed.Cache.Lead): a hit returns the cached canonical answer (shared:
// read, never mutate); leader means the caller owns f and must settle it;
// otherwise f is another request's flight, to wait on.
func (fc *ForecastCache) lead(key forecastKey) ([]Prediction, *keyed.Flight[cacheEntry], bool) {
	return fc.probe(key, true)
}

// probe is lead, but with join false a key another request owns reports a
// plain miss with f == nil, for callers that cannot park mid-request (the
// evaluate base-answer phase): they compute beside the owner.
func (fc *ForecastCache) probe(key forecastKey, join bool) ([]Prediction, *keyed.Flight[cacheEntry], bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	e, f, leader := fc.entries.Lead(key, join)
	if e != nil {
		return e.Value.preds, nil, false
	}
	return nil, f, leader
}

// renderKey is the exact-request index key: one predict_transfers request
// line — its raw, unparsed query string — against one (platform, epoch,
// config). Equal keys are the same question about the same network
// picture, so the body rendered for one answers the other byte for byte;
// the struct is comparable, so a lookup builds no string. Only requests
// without at= or deadline= attach a rendering (handlePredict), which is
// what lets a hit assume the head epoch and no deadline without parsing.
type renderKey struct {
	pictureKey
	rawQuery string
}

func renderKeyOf(platform string, entry PlatformEntry, rawQuery string) renderKey {
	return renderKey{pictureKeyOf(platform, entry), rawQuery}
}

// rendering is one stored response body and the LRU entry it belongs to.
// It is a view of that entry, not a cache of its own: it is counted, aged
// and evicted as the entry.
type rendering struct {
	el   *keyed.Entry[forecastKey, cacheEntry]
	body []byte
}

// maxRenderingsPerEntry bounds the request lines remembered per cached
// answer. A poller repeats one line; a client that permutes parameters
// fills the bound and is then served by the canonical hit as before —
// the first lines win, nothing churns.
const maxRenderingsPerEntry = 4

// hasRendering reports whether a rendering exists for k, touching and
// counting nothing: the handler asks before admission, and answers (via
// renderedHit) only after.
func (fc *ForecastCache) hasRendering(k renderKey) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	_, ok := fc.rendered[k]
	return ok
}

// renderedHit returns the body stored for k and counts an LRU hit on the
// entry it belongs to. The bytes are shared: write, never mutate.
func (fc *ForecastCache) renderedHit(k renderKey) ([]byte, bool) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	r, ok := fc.rendered[k]
	if !ok {
		return nil, false
	}
	fc.entries.Touch(r.el)
	fc.renderedHits++
	return r.body, true
}

// attachRendering remembers body (copied) as the response to request line
// k, on the entry cached under the canonical key. No-op when that entry
// is gone or full, when k is already known — and while the answer has
// never been hit: a request stream that never repeats (every answer
// simulated once, stored, evicted) would otherwise pay a body copy per
// miss and pin a request line and a body per entry for renderings nobody
// reads — measured at -7 % req/s on bench's cold-miss workload. So the
// miss stores the answer, the first hit attaches its request line, and
// the shortcut serves from the second hit on.
func (fc *ForecastCache) attachRendering(key forecastKey, k renderKey, body []byte) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.entries.Peek(key)
	if !ok {
		return
	}
	ent := &el.Value
	if !el.Reused() || len(ent.renderings) >= maxRenderingsPerEntry {
		return
	}
	for _, have := range ent.renderings { // cheaper than hashing k again
		if have == k {
			return
		}
	}
	ent.renderings = append(ent.renderings, k)
	fc.rendered[k] = rendering{el: el, body: append([]byte(nil), body...)}
}

// PredictCtx answers a PNFS request through the cache under a request
// context: platform names the entry (it is the cache key namespace), and
// the remaining arguments mirror PredictTransfers. Predictions are
// returned in request order. Concurrent identical requests coalesce onto
// one in-flight simulation (internal/keyed): the first requester
// simulates, duplicates wait for its answer — but give up when their own
// ctx expires, even if the leader runs on.
func (fc *ForecastCache) PredictCtx(ctx context.Context, platform string, entry PlatformEntry, transfers []TransferRequest, background [][2]string) ([]Prediction, error) {
	canonical, q, err := fc.predictKeyed(ctx, platform, entry, transfers, background)
	if err != nil {
		return nil, err
	}
	return reorder(canonical, q.order), nil
}

// predictKeyed is PredictCtx without the final reorder: it returns the
// cached canonical-order answer (shared: read, never mutate) and the
// canonical query — the permutation back to request order and the key
// the answer is cached under, for attachRendering.
func (fc *ForecastCache) predictKeyed(ctx context.Context, platform string, entry PlatformEntry, transfers []TransferRequest, background [][2]string) ([]Prediction, canonicalQuery, error) {
	if len(transfers) == 0 {
		return nil, canonicalQuery{}, fmt.Errorf("pilgrim: no transfers requested")
	}
	// Pin the epoch once: the cache key and the simulation below must see
	// the same snapshot even if the platform is recompiled mid-request.
	entry = entry.WithSnapshot()
	q := canonicalizeQuery(platform, entry, transfers, background)
	// Simulate in canonical order so a given logical workload always
	// produces a bit-identical answer regardless of parameter order.
	ent, err := fc.entries.Do(ctx, q.key, func() (cacheEntry, error) {
		preds, err := predictOrdered(entry, transfers, q.order, q.background)
		return cacheEntry{preds: preds}, err
	})
	if err != nil {
		return nil, canonicalQuery{}, err
	}
	return ent.preds, q, nil
}

// reorder maps canonical-order predictions back to request order:
// canonical[pos] answers the transfer that request index order[pos] asked
// for.
func reorder(canonical []Prediction, order []int) []Prediction {
	out := make([]Prediction, len(canonical))
	for pos, i := range order {
		out[i] = canonical[pos]
	}
	return out
}
