package pilgrim

// This file is the registry's durability seam. A Registry is memory-only
// until SetStorage hands it a Storage backend (in practice *store.WAL);
// from then on every mutation — platform registration, link-state
// observation, background-estimate registration, update rejection — is
// logged before it is applied, and a Registry built over the same data
// directory after a crash restores timelines, forecaster banks, and
// accounting byte-identically (pinned epoch ids included).
//
// Locking: mutators hold gate.RLock for the log+apply pair; the
// background compactor takes gate.Lock, so it captures registry state at
// a quiescent point that exactly matches the log cut. Lock order is
// gate -> r.mu / re.fmu -> the backend's own mutex; the compactor
// releases each entry's fmu before calling Compact.

import (
	"fmt"
	"math"
	"sort"

	"pilgrim/internal/nws"
	"pilgrim/internal/platform"
	"pilgrim/internal/store"
)

// Storage is the durability backend behind a Registry: an append-only
// mutation log with snapshot compaction. *store.WAL implements it; nil
// means memory-only (the pre-durability behavior).
type Storage interface {
	// Append logs one mutation; the registry applies the mutation only
	// after Append returns nil.
	Append(store.Record) error
	// NeedsCompaction reports whether the log has grown past its
	// compaction threshold.
	NeedsCompaction() bool
	// Compact persists a full registry state capture and truncates the
	// log. The registry guarantees no mutation is in flight.
	Compact(store.State) error
	// Sync forces logged mutations to disk regardless of fsync policy.
	Sync() error
	// Close flushes and releases the backend.
	Close() error
	// Stats reports the backend's accounting (surfaced by cache_stats).
	Stats() store.WALStats
}

// SetStorage attaches a durability backend and the state recovered from
// it. Must be called on an empty registry, before any Add: recovered
// platforms are restored lazily as Add re-registers them by name. Floors
// the process epoch counter above every recovered id so restored epochs
// are never aliased by new allocations.
func (r *Registry) SetStorage(s Storage, recovered *store.RecoveredState) error {
	if s == nil {
		return fmt.Errorf("pilgrim: nil storage backend")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.storage != nil {
		return fmt.Errorf("pilgrim: storage already attached")
	}
	if len(r.entries) > 0 {
		return fmt.Errorf("pilgrim: storage must be attached before platforms are registered")
	}
	r.storage = s
	if recovered != nil {
		r.recovered = recovered.Platforms
		platform.EnsureEpochAtLeast(recovered.MaxEpoch)
	}
	r.compactCh = make(chan struct{}, 1)
	r.compactQuit = make(chan struct{})
	r.compactWG.Add(1)
	go r.compactLoop(s, r.compactCh, r.compactQuit)
	return nil
}

// backend returns the attached storage (nil in memory mode).
func (r *Registry) backend() Storage {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.storage
}

// StorageStats reports the attached backend's accounting; ok is false in
// memory mode.
func (r *Registry) StorageStats() (store.WALStats, bool) {
	s := r.backend()
	if s == nil {
		return store.WALStats{}, false
	}
	return s.Stats(), true
}

// PendingRecoveries lists recovered platforms no Add has re-registered
// yet. Non-empty after startup means the data directory holds platforms
// the current configuration does not serve; their history is dropped at
// the next compaction.
func (r *Registry) PendingRecoveries() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.recovered))
	for name := range r.recovered {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close stops the background compactor and closes the storage backend.
// Safe (and a no-op) in memory mode and when called twice.
func (r *Registry) Close() error {
	r.mu.Lock()
	s := r.storage
	quit := r.compactQuit
	r.storage = nil
	r.compactQuit = nil
	r.mu.Unlock()
	if quit != nil {
		close(quit)
		r.compactWG.Wait()
	}
	if s != nil {
		return s.Close()
	}
	return nil
}

// maybeCompact nudges the background compactor. Non-blocking: a signal
// already pending covers this one.
func (r *Registry) maybeCompact() {
	s := r.backend()
	if s == nil || !s.NeedsCompaction() {
		return
	}
	r.mu.RLock()
	ch := r.compactCh
	r.mu.RUnlock()
	if ch == nil {
		return
	}
	select {
	case ch <- struct{}{}:
	default:
	}
}

// compactLoop runs snapshot compaction off the request path. Taking the
// gate write lock excludes every mutator, so the captured state matches
// the log contents exactly; a failed compaction is retried on the next
// signal (the log keeps growing, nothing is lost).
func (r *Registry) compactLoop(s Storage, ch <-chan struct{}, quit <-chan struct{}) {
	defer r.compactWG.Done()
	for {
		select {
		case <-quit:
			return
		case <-ch:
			if !s.NeedsCompaction() {
				continue
			}
			r.gate.Lock()
			state := r.captureState()
			err := s.Compact(state)
			r.gate.Unlock()
			_ = err
		}
	}
}

// captureState serializes the whole registry for a compaction snapshot.
// Callers hold the gate write lock (no mutation in flight).
func (r *Registry) captureState() store.State {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	st := store.State{Platforms: make([]store.PlatformState, 0, len(names))}
	for _, name := range names {
		re := r.entries[name]
		re.fmu.Lock()
		tls := re.tl.Stats()
		bank := re.bank.ExportState()
		ps := store.PlatformState{
			Name:      name,
			BaseEpoch: re.tl.Base().Epoch(),
			Links:     re.tl.Base().NumLinks(),
			Appends:   tls.Appends,
			Evictions: tls.Evictions,
			Rejects:   re.rejects.Load(),
			Entries:   re.tl.Records(),
			Bank:      &bank,
			BgFlows:   append([][2]string(nil), re.bgFlows...),
			BgSource:  re.bgSource,
		}
		re.fmu.Unlock()
		if ps.BaseEpoch > st.MaxEpoch {
			st.MaxEpoch = ps.BaseEpoch
		}
		for _, e := range ps.Entries {
			if e.Epoch > st.MaxEpoch {
				st.MaxEpoch = e.Epoch
			}
		}
		st.Platforms = append(st.Platforms, ps)
	}
	return st
}

// restoreEntry rebuilds one platform's registry entry from its recovered
// state: the freshly compiled base is pinned to the logged base epoch,
// the retained history is replayed with its logged epoch ids, the
// forecaster bank is imported wholesale, and the post-snapshot log tail
// goes through the same apply paths live mutations take.
func (r *Registry) restoreEntry(entry PlatformEntry, pr *store.PlatformRecovery) (*regEntry, error) {
	base := entry.snapshot()
	st := pr.State
	if st.BaseEpoch == 0 {
		return nil, fmt.Errorf("recovered registration has no base epoch")
	}
	if st.Links != base.NumLinks() {
		return nil, fmt.Errorf("recovered state has %d links, the compiled platform %d — data directory belongs to a different platform", st.Links, base.NumLinks())
	}
	tl := platform.NewTimeline(base.CloneWithEpoch(st.BaseEpoch), r.depth)
	for _, e := range st.Entries {
		if _, err := tl.AppendPinned(e.Time, e.Source, e.Updates, e.Epoch); err != nil {
			return nil, fmt.Errorf("replaying snapshot entry at t=%d: %w", e.Time, err)
		}
	}
	bank := nws.NewBank(base.NumLinks())
	if st.Bank != nil {
		// The bank capture is coherent with the snapshot's entries — they
		// are not re-fed; only tail observations below are.
		var err error
		bank, err = nws.NewBankFromState(*st.Bank)
		if err != nil {
			return nil, fmt.Errorf("restoring forecaster bank: %w", err)
		}
	}
	tl.RestoreCounters(st.Appends, st.Evictions)
	re := &regEntry{
		plat:     entry.Platform,
		cfg:      entry.Config,
		tl:       tl,
		bank:     bank,
		bgFlows:  append([][2]string(nil), st.BgFlows...),
		bgSource: st.BgSource,
	}
	re.rejects.Store(st.Rejects)
	for _, rec := range pr.Tail {
		switch rec.Op {
		case store.OpObserve:
			snap, err := tl.AppendPinned(rec.Time, rec.Source, rec.Updates, rec.Epoch)
			if err != nil {
				return nil, fmt.Errorf("replaying logged observation at t=%d: %w", rec.Time, err)
			}
			feedBank(bank, snap, rec.Updates)
		case store.OpBgEstimate:
			if len(rec.Flows) == 0 {
				re.bgFlows, re.bgSource = nil, ""
			} else {
				re.bgFlows = append([][2]string(nil), rec.Flows...)
				re.bgSource = rec.Source
			}
		case store.OpReject:
			re.rejects.Add(1)
		}
	}
	return re, nil
}

// feedBank teaches the forecaster bank one applied observation batch:
// exactly the values the observation rule (LinkUpdate.Overlay) let into
// the epoch. Shared by the live observation path and WAL tail replay —
// the two must match exactly for recovered forecasts to be byte-identical.
func feedBank(bank *nws.Bank, snap *platform.Snapshot, updates []platform.LinkUpdate) {
	for _, u := range updates {
		li, ok := snap.LinkIndex(u.Link)
		if !ok {
			continue // unreachable: the append validated every link
		}
		o := u.Overlay(li)
		if !math.IsNaN(o.Bandwidth) {
			bank.ObserveBandwidth(li, o.Bandwidth)
		}
		if !math.IsNaN(o.Latency) {
			bank.ObserveLatency(li, o.Latency)
		}
	}
}

// finiteUpdates rewrites non-finite bandwidths and latencies to the -1
// keep-current sentinel, copying the batch only when it holds one. An
// epoch ignores such a value either way, but a log record cannot carry it
// (JSON has no NaN or Inf): rewriting first makes the logged record, the
// timeline entry and the epoch agree in memory and durable mode.
func finiteUpdates(updates []platform.LinkUpdate) []platform.LinkUpdate {
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	for i, u := range updates {
		if finite(u.Bandwidth) && finite(u.Latency) {
			continue
		}
		out := append([]platform.LinkUpdate(nil), updates...)
		for j := i; j < len(out); j++ {
			if !finite(out[j].Bandwidth) {
				out[j].Bandwidth = -1
			}
			if !finite(out[j].Latency) {
				out[j].Latency = -1
			}
		}
		return out
	}
	return updates
}
