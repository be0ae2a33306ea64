package pilgrim

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pilgrim/internal/sim"
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
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	rendered map[renderKey]rendering
	// flights is the in-flight coalescing table (flight.go): one entry
	// per canonical key currently being simulated, so concurrent
	// identical requests share one computation instead of racing to
	// fill the LRU. Active even when capacity <= 0 disables the LRU.
	flights      map[string]*flightCall
	hits         uint64
	misses       uint64
	coalesced    uint64
	renderedHits uint64 // the subset of hits answered from rendered
}

// cacheEntry is one memoized answer, predictions in canonical order. The
// key embeds the snapshot epoch the answer was simulated against; epochs
// are process-unique and never reused, so an entry can neither alias nor
// outlive the network picture that produced it — no pointers need
// pinning.
type cacheEntry struct {
	key   string
	preds []Prediction
	// renderings lists this entry's keys in ForecastCache.rendered (at
	// most maxRenderingsPerEntry), so eviction can drop them. repeated
	// records that the answer has been hit at least once: only then is it
	// worth remembering request lines for (attachRendering).
	renderings []renderKey
	repeated   bool
}

// NewForecastCache returns a cache holding up to capacity distinct
// queries. A capacity <= 0 disables caching: every Predict simulates and
// counts as a miss.
func NewForecastCache(capacity int) *ForecastCache {
	return &ForecastCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		rendered: make(map[renderKey]rendering),
		flights:  make(map[string]*flightCall),
	}
}

// CacheStats is the hit/miss accounting surfaced by the server.
// CoalescedHits counts requests answered by waiting on another
// request's in-flight simulation — neither an LRU hit nor a paid miss.
// RenderedHits is the subset of Hits answered from the exact-request
// index (the stored response body, no canonicalization or encode).
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	CoalescedHits uint64 `json:"coalesced_hits"`
	RenderedHits  uint64 `json:"rendered_hits"`
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
}

// Stats returns a snapshot of the cache counters.
func (fc *ForecastCache) Stats() CacheStats {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return CacheStats{Hits: fc.hits, Misses: fc.misses, CoalescedHits: fc.coalesced, RenderedHits: fc.renderedHits, Size: fc.lru.Len(), Capacity: fc.capacity}
}

// canonicalize returns the indices of transfers sorted by (Src, Dst,
// Size) — the canonical simulation order.
func canonicalize(transfers []TransferRequest) []int {
	order := make([]int, len(transfers))
	for i := range order {
		order[i] = i
	}
	less := func(a, b int) bool {
		ta, tb := transfers[a], transfers[b]
		if ta.Src != tb.Src {
			return ta.Src < tb.Src
		}
		if ta.Dst != tb.Dst {
			return ta.Dst < tb.Dst
		}
		return ta.Size < tb.Size
	}
	if len(order) > 64 {
		sort.SliceStable(order, func(a, b int) bool { return less(order[a], order[b]) })
		return order
	}
	// Insertion sort for request-sized inputs: stable by construction and
	// allocation-free, where sort.SliceStable pays a reflect-based swapper
	// on every call of the QPS path.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// The canonical lookup key has three parts: an entry prefix (platform
// name, snapshot epoch, model config), the transfer multiset in canonical
// order with sizes keyed by exact bit pattern, and the sorted background
// multiset. Epochs are globally unique per network picture, so a
// link-state update (or a platform rebuild) naturally retires every
// cached answer computed against the old state, and two entries
// registered under the same name with different model configurations
// never share answers. The split lets the evaluate layer canonicalize a
// query once and re-key it per scenario epoch with one concatenation.

// prefixMemoKey identifies one cacheKeyPrefix result. sim.Config is all
// scalars, so the struct is comparable and map-keyable without boxing.
type prefixMemoKey struct {
	platform string
	epoch    uint64
	config   sim.Config
}

func prefixKeyOf(platform string, entry PlatformEntry) prefixMemoKey {
	return prefixMemoKey{platform: platform, epoch: entry.snapshot().Epoch(), config: entry.Config}
}

// prefixMemo caches cacheKeyPrefix renderings: the prefix is pure in
// (platform, epoch, config), and its "%+v" formatting reflects over the
// config struct — around ten allocations that would otherwise be paid
// per request on the QPS path. Bounded by wholesale reset; entries are
// tiny and epochs retire as platforms observe new link state.
var prefixMemo struct {
	sync.RWMutex
	m map[prefixMemoKey]string
}

const prefixMemoCap = 1024

// cacheKeyPrefix keys the (platform, epoch, config) the answer is valid
// for.
func cacheKeyPrefix(platform string, entry PlatformEntry) string {
	k := prefixKeyOf(platform, entry)
	prefixMemo.RLock()
	p, ok := prefixMemo.m[k]
	prefixMemo.RUnlock()
	if ok {
		return p
	}
	p = fmt.Sprintf("%s\x1c%d\x1c%+v", k.platform, k.epoch, k.config)
	prefixMemo.Lock()
	if prefixMemo.m == nil || len(prefixMemo.m) >= prefixMemoCap {
		prefixMemo.m = make(map[prefixMemoKey]string)
	}
	prefixMemo.m[k] = p
	prefixMemo.Unlock()
	return p
}

// transfersKey keys the transfer multiset (in the canonical order given).
func transfersKey(transfers []TransferRequest, order []int) string {
	var b strings.Builder
	for _, i := range order {
		t := transfers[i]
		b.WriteByte(0x1e)
		b.WriteString(t.Src)
		b.WriteByte(0x1f)
		b.WriteString(t.Dst)
		b.WriteByte(0x1f)
		b.WriteString(strconv.FormatUint(math.Float64bits(t.Size), 16))
	}
	return b.String()
}

// backgroundKey keys a background multiset already in canonical (sorted)
// order.
func backgroundKey(background [][2]string) string {
	if len(background) == 0 {
		return ""
	}
	var b strings.Builder
	for _, p := range background {
		b.WriteByte(0x1d)
		b.WriteString(p[0])
		b.WriteByte(0x1f)
		b.WriteString(p[1])
	}
	return b.String()
}

// keyScratch pools cacheKey build buffers: the key is assembled
// append-style into a reused buffer and materialized with one final
// string allocation, instead of one allocation per size fragment plus
// builder growth (this runs once per predict/select hypothesis — the
// QPS path).
var keyScratch = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// cacheKey builds the full canonical lookup key; background must already
// be in canonical order.
func cacheKey(platform string, entry PlatformEntry, transfers []TransferRequest, order []int, background [][2]string) string {
	bp := keyScratch.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, cacheKeyPrefix(platform, entry)...)
	for _, i := range order {
		t := transfers[i]
		b = append(b, 0x1e)
		b = append(b, t.Src...)
		b = append(b, 0x1f)
		b = append(b, t.Dst...)
		b = append(b, 0x1f)
		b = strconv.AppendUint(b, math.Float64bits(t.Size), 16)
	}
	for _, p := range background {
		b = append(b, 0x1d)
		b = append(b, p[0]...)
		b = append(b, 0x1f)
		b = append(b, p[1]...)
	}
	key := string(b)
	*bp = b
	keyScratch.Put(bp)
	return key
}

// canonicalBackground returns the background multiset in canonical
// (sorted) order. Background flows are part of the canonical workload:
// simulating them in sorted order means the answer for a logical workload
// does not depend on which bg parameter ordering happened to arrive
// first.
func canonicalBackground(background [][2]string) [][2]string {
	if len(background) > 1 {
		background = append([][2]string(nil), background...)
		sort.Slice(background, func(i, j int) bool {
			if background[i][0] != background[j][0] {
				return background[i][0] < background[j][0]
			}
			return background[i][1] < background[j][1]
		})
	}
	return background
}

// canonicalQuery is one prediction workload in canonical form: the cache
// key, the transfers in canonical simulation order, the sorted background
// flows, and the permutation mapping canonical results back to request
// order. It is the unit the evaluate layer deduplicates: two sub-
// simulations with equal keys are the same (epoch, config, query) triple
// and pay for one simulation between them.
type canonicalQuery struct {
	key        string
	transfers  []TransferRequest
	background [][2]string
	order      []int
}

// canonicalizeQuery lowers one request into canonical form. The entry
// must already be pinned (WithSnapshot) so the key and the simulation see
// the same epoch.
func canonicalizeQuery(platform string, entry PlatformEntry, transfers []TransferRequest, background [][2]string) canonicalQuery {
	order := canonicalize(transfers)
	background = canonicalBackground(background)
	canonicalReq := make([]TransferRequest, len(transfers))
	for pos, i := range order {
		canonicalReq[pos] = transfers[i]
	}
	return canonicalQuery{
		key:        cacheKey(platform, entry, transfers, order, background),
		transfers:  canonicalReq,
		background: background,
		order:      order,
	}
}

// touchLocked is the one LRU hit: the entry moves to the front and the
// hit is counted. Every probe — by canonical key (probe, flight.go) or by
// exact request line (renderedHit) — goes through it, so the LRU order
// and the hit count do not depend on which index found the entry. The
// entry's predictions are in canonical order and shared: callers reorder
// via the query's permutation, never mutate. fc.mu held.
func (fc *ForecastCache) touchLocked(el *list.Element) *cacheEntry {
	fc.lru.MoveToFront(el)
	fc.hits++
	ent := el.Value.(*cacheEntry)
	ent.repeated = true
	return ent
}

// evictLocked trims the LRU to capacity. An evicted answer takes its
// renderings with it. fc.mu held.
func (fc *ForecastCache) evictLocked() {
	for fc.lru.Len() > fc.capacity {
		ent := fc.lru.Remove(fc.lru.Back()).(*cacheEntry)
		delete(fc.entries, ent.key)
		for _, k := range ent.renderings {
			delete(fc.rendered, k)
		}
	}
}

// Store memoizes a canonical-order answer under its key (no-op when
// caching is disabled; a concurrent filler's entry wins).
func (fc *ForecastCache) Store(key string, canonical []Prediction) {
	if fc == nil || fc.capacity <= 0 {
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if _, ok := fc.entries[key]; ok { // concurrent request filled it
		return
	}
	fc.entries[key] = fc.lru.PushFront(&cacheEntry{key: key, preds: canonical})
	fc.evictLocked()
}

// renderKey is the exact-request index key: one predict_transfers request
// line — its raw, unparsed query string — against one (platform, epoch,
// config). Equal keys are the same question about the same network
// picture, so the body rendered for one answers the other byte for byte;
// the struct is comparable, so a lookup builds no string. Only requests
// without at= or deadline= attach a rendering (handlePredict), which is
// what lets a hit assume the head epoch and no deadline without parsing.
type renderKey struct {
	prefixMemoKey
	rawQuery string
}

func renderKeyOf(platform string, entry PlatformEntry, rawQuery string) renderKey {
	return renderKey{prefixKeyOf(platform, entry), rawQuery}
}

// rendering is one stored response body and the LRU entry it belongs to.
// It is a view of that entry, not a cache of its own: it is counted, aged
// and evicted as the entry.
type rendering struct {
	el   *list.Element
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
	fc.touchLocked(r.el)
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
func (fc *ForecastCache) attachRendering(key string, k renderKey, body []byte) {
	if k != k { // a NaN in the config: the key could never be found or deleted
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	el, ok := fc.entries[key]
	if !ok {
		return
	}
	ent := el.Value.(*cacheEntry)
	if !ent.repeated || len(ent.renderings) >= maxRenderingsPerEntry {
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

// Predict answers a PNFS request through the cache: platform names the
// entry (it is the cache key namespace), and the remaining arguments
// mirror PredictTransfers. Predictions are returned in request order.
func (fc *ForecastCache) Predict(platform string, entry PlatformEntry, transfers []TransferRequest, background [][2]string) ([]Prediction, error) {
	return fc.PredictCtx(context.Background(), platform, entry, transfers, background)
}

// PredictCtx is Predict under a request context. Concurrent identical
// requests coalesce onto one in-flight simulation (flight.go): the
// first requester simulates, duplicates wait for its answer — but give
// up when their own ctx expires, even if the leader runs on.
func (fc *ForecastCache) PredictCtx(ctx context.Context, platform string, entry PlatformEntry, transfers []TransferRequest, background [][2]string) ([]Prediction, error) {
	preds, _, err := fc.predictKeyed(ctx, platform, entry, transfers, background)
	return preds, err
}

// predictKeyed is PredictCtx that also returns the canonical key the
// answer is cached under, for attachRendering.
func (fc *ForecastCache) predictKeyed(ctx context.Context, platform string, entry PlatformEntry, transfers []TransferRequest, background [][2]string) ([]Prediction, string, error) {
	if len(transfers) == 0 {
		return nil, "", fmt.Errorf("pilgrim: no transfers requested")
	}
	// Pin the epoch once: the cache key and the simulation below must see
	// the same snapshot even if the platform is recompiled mid-request.
	entry = entry.WithSnapshot()
	q := canonicalizeQuery(platform, entry, transfers, background)
	// Simulate in canonical order so a given logical workload always
	// produces a bit-identical answer regardless of parameter order.
	canonical, err := fc.predictCanonical(ctx, q.key, func() ([]Prediction, error) {
		return PredictTransfers(entry, q.transfers, q.background)
	})
	if err != nil {
		return nil, "", err
	}
	return reorder(canonical, q.order), q.key, nil
}

// SelectFastest is SelectFastest routed through the cache: each
// hypothesis is one cacheable prediction, so a scheduler polling the
// same alternatives repeatedly pays for each simulation once. Cache
// misses simulate concurrently over the package's default worker pool.
func (fc *ForecastCache) SelectFastest(platform string, entry PlatformEntry, hyps []Hypothesis) (best int, results []HypothesisResult, err error) {
	return defaultPool().SelectFastestCached(fc, platform, entry, hyps)
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
