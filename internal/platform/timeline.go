package platform

// This file implements the temporal layer over compiled snapshots: a
// Timeline is a bounded, timestamped, ordered history of link-state
// epochs. Where a bare Snapshot answers "what does the network look like
// right now", a Timeline answers "what did it look like at time T" — the
// substrate for forecasting at arbitrary horizons (past T: an O(log n)
// lookup; future T: NWS extrapolation materialized by the caller on top
// of Latest()).
//
// Appending an observation batch derives the new epoch by copy-on-write
// from the head (Snapshot.WithLinkState), so the cost per observation is
// O(changed links) — never O(platform), never O(history). The history is
// a ring buffer of at most `depth` entries: when full, the oldest entry
// is dropped in O(1) and its snapshot becomes collectable (epochs share
// unchanged pages, so retired history costs only its own changed pages).
//
// Concurrency: Append takes the write lock; AtTime/Entries/Stats take the
// read lock; Latest is a lock-free atomic load so the forecast hot path
// never contends with history readers.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrOutOfOrder is returned by Timeline.Append for an observation older
// than the timeline head: history is append-only and strictly ordered
// (equal timestamps are allowed; the latest append wins lookups).
var ErrOutOfOrder = errors.New("platform: observation precedes timeline head")

// DefaultTimelineDepth is the history bound NewTimeline applies when
// given a non-positive depth.
const DefaultTimelineDepth = 128

// TimelineEntry describes one retained observation: when it was taken,
// the epoch it produced, who reported it, and how many links it revised.
type TimelineEntry struct {
	Time    int64  `json:"time"`
	Epoch   uint64 `json:"epoch"`
	Source  string `json:"source,omitempty"`
	Changed int    `json:"links_changed"`
}

// TimelineStats is the accounting surfaced by the pilgrim timeline_stats
// endpoint.
type TimelineStats struct {
	// Depth and Capacity are the retained and maximum history lengths.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	// BaseEpoch identifies the platform picture before any observation;
	// lookups earlier than the first retained entry answer against it.
	BaseEpoch uint64 `json:"base_epoch"`
	// FirstTime/LastTime bound the retained history (zero when empty).
	FirstTime int64 `json:"first_time"`
	LastTime  int64 `json:"last_time"`
	// Appends counts observations ever folded in; Evictions counts the
	// entries the depth bound has retired.
	Appends   uint64 `json:"appends"`
	Evictions uint64 `json:"evictions"`
	// Entries lists the retained history, oldest first.
	Entries []TimelineEntry `json:"entries"`
}

// Timeline is a bounded, timestamped, ordered history of link-state
// epochs of one compiled platform. All methods are safe for concurrent
// use.
type Timeline struct {
	mu   sync.RWMutex
	base *Snapshot

	// Ring buffer of the retained history, oldest at index head. updates
	// keeps each entry's observation batch so the retained history can be
	// re-serialized verbatim (WAL snapshot compaction).
	snaps   []*Snapshot
	times   []int64
	sources []string
	changed []int
	updates [][]LinkUpdate
	head    int
	count   int

	appends   uint64
	evictions uint64

	// latest mirrors the newest snapshot (base while empty) for lock-free
	// reads on the forecast hot path.
	latest atomic.Pointer[Snapshot]
}

// NewTimeline starts a timeline on the given base epoch, retaining at
// most depth observations (depth <= 0 selects DefaultTimelineDepth).
func NewTimeline(base *Snapshot, depth int) *Timeline {
	if base == nil {
		panic(errors.New("platform: nil base snapshot for timeline"))
	}
	if depth <= 0 {
		depth = DefaultTimelineDepth
	}
	tl := &Timeline{
		base:    base,
		snaps:   make([]*Snapshot, depth),
		times:   make([]int64, depth),
		sources: make([]string, depth),
		changed: make([]int, depth),
		updates: make([][]LinkUpdate, depth),
	}
	tl.latest.Store(base)
	return tl
}

// Base returns the epoch before any observation.
func (tl *Timeline) Base() *Snapshot { return tl.base }

// Latest returns the newest epoch (the base while the history is empty).
// It is a single atomic load.
func (tl *Timeline) Latest() *Snapshot { return tl.latest.Load() }

// LatestTime returns the timestamp of the newest observation; ok is false
// while the history is empty.
func (tl *Timeline) LatestTime() (t int64, ok bool) {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	if tl.count == 0 {
		return 0, false
	}
	return tl.times[tl.at(tl.count-1)], true
}

// at maps a logical history index (0 = oldest) to a ring index.
func (tl *Timeline) at(i int) int { return (tl.head + i) % len(tl.snaps) }

// Append folds one timestamped observation batch into the timeline: a new
// epoch is derived by copy-on-write from the head and becomes Latest().
// t must be >= the head's timestamp (history is ordered); source is free
// provenance text recorded with the entry. When the history is at
// capacity the oldest entry is dropped. Returns the new epoch.
func (tl *Timeline) Append(t int64, source string, updates []LinkUpdate) (*Snapshot, error) {
	return tl.append(t, source, updates, 0)
}

// AppendPinned is Append with a caller-supplied epoch id — the WAL
// recovery path, which replays logged observations and must reproduce
// the exact epoch ids the original process assigned. epoch must come
// from a recovered log (see Snapshot.CloneWithEpoch on id aliasing).
func (tl *Timeline) AppendPinned(t int64, source string, updates []LinkUpdate, epoch uint64) (*Snapshot, error) {
	return tl.append(t, source, updates, epoch)
}

// append folds one observation in; epoch 0 allocates a fresh id, any
// other value pins it (0 is never a valid allocated id — the counter
// starts at 1).
func (tl *Timeline) append(t int64, source string, updates []LinkUpdate, epoch uint64) (*Snapshot, error) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.count > 0 && t < tl.times[tl.at(tl.count-1)] {
		return nil, fmt.Errorf("%w: observation at %d, head at %d",
			ErrOutOfOrder, t, tl.times[tl.at(tl.count-1)])
	}
	var next *Snapshot
	var err error
	if epoch == 0 {
		next, err = tl.latest.Load().WithLinkState(updates)
	} else {
		next, err = tl.latest.Load().withLinkStateEpoch(updates, epoch)
	}
	if err != nil {
		return nil, err
	}
	if tl.count == len(tl.snaps) {
		tl.snaps[tl.head] = nil
		tl.updates[tl.head] = nil
		tl.head = (tl.head + 1) % len(tl.snaps)
		tl.count--
		tl.evictions++
	}
	i := tl.at(tl.count)
	tl.snaps[i] = next
	tl.times[i] = t
	tl.sources[i] = source
	tl.changed[i] = len(updates)
	tl.updates[i] = append([]LinkUpdate(nil), updates...)
	tl.count++
	tl.appends++
	tl.latest.Store(next)
	return next, nil
}

// RestoreCounters overwrites the append/eviction accounting — recovery
// only, after the retained history has been replayed, so a warm restart
// reports the same lifetime totals its predecessor did.
func (tl *Timeline) RestoreCounters(appends, evictions uint64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.appends = appends
	tl.evictions = evictions
}

// TimelineRecord is one retained observation in replayable form: the
// entry metadata plus the full update batch that produced it. WAL
// snapshot compaction serializes these; recovery replays them through
// AppendPinned.
type TimelineRecord struct {
	Time    int64        `json:"time"`
	Epoch   uint64       `json:"epoch"`
	Source  string       `json:"source,omitempty"`
	Updates []LinkUpdate `json:"updates"`
}

// Records returns the retained history with full update batches, oldest
// first. The update slices are copies; mutating them does not affect the
// timeline.
func (tl *Timeline) Records() []TimelineRecord {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	out := make([]TimelineRecord, tl.count)
	for i := range out {
		ri := tl.at(i)
		out[i] = TimelineRecord{
			Time:    tl.times[ri],
			Epoch:   tl.snaps[ri].Epoch(),
			Source:  tl.sources[ri],
			Updates: append([]LinkUpdate(nil), tl.updates[ri]...),
		}
	}
	return out
}

// AtTime returns the epoch in effect at time t: the newest observation
// with timestamp <= t, found by O(log n) binary search over the retained
// history. Times earlier than the first retained observation (including
// all times while the history is empty) answer the base epoch — the
// platform as described before any measurement.
func (tl *Timeline) AtTime(t int64) *Snapshot {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	// First logical index with times > t; the entry before it governs t.
	n := sort.Search(tl.count, func(i int) bool { return tl.times[tl.at(i)] > t })
	if n == 0 {
		return tl.base
	}
	return tl.snaps[tl.at(n-1)]
}

// Depth returns the number of retained observations.
func (tl *Timeline) Depth() int {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	return tl.count
}

// entriesLocked builds the retained history, oldest first. Callers hold
// tl.mu.
func (tl *Timeline) entriesLocked() []TimelineEntry {
	out := make([]TimelineEntry, tl.count)
	for i := range out {
		ri := tl.at(i)
		out[i] = TimelineEntry{
			Time:    tl.times[ri],
			Epoch:   tl.snaps[ri].Epoch(),
			Source:  tl.sources[ri],
			Changed: tl.changed[ri],
		}
	}
	return out
}

// Stats returns a consistent snapshot of the timeline accounting.
func (tl *Timeline) Stats() TimelineStats {
	tl.mu.RLock()
	defer tl.mu.RUnlock()
	st := TimelineStats{
		Depth:     tl.count,
		Capacity:  len(tl.snaps),
		BaseEpoch: tl.base.Epoch(),
		Appends:   tl.appends,
		Evictions: tl.evictions,
		Entries:   tl.entriesLocked(),
	}
	if tl.count > 0 {
		st.FirstTime = tl.times[tl.at(0)]
		st.LastTime = tl.times[tl.at(tl.count-1)]
	}
	return st
}
