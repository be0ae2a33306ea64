package shard

import (
	"sync/atomic"
)

// Ring assigns platform names to workers by rendezvous (highest-random-
// weight) hashing: every worker scores every key with a seeded hash and
// the highest score owns it. Rendezvous hashing gives the two properties
// the fleet needs with no virtual-node bookkeeping:
//
//   - determinism: ownership is a pure function of (worker names, key),
//     so every process that loads the same shard map routes identically,
//     across restarts and machines;
//   - minimal movement: removing a worker reassigns only the keys it
//     owned (each to its runner-up), and adding one steals only the keys
//     it now scores highest on — about n/k of them.
//
// A Ring is immutable after NewRing; reload by building a new Ring and
// swapping it into a Table.
type Ring struct {
	workers []Worker // sorted by name
	seeds   []uint64 // per-worker hash seed, derived from the name
}

// NewRing builds a ring over the map's workers. The map must validate.
func NewRing(m *Map) (*Ring, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ws := sortedCopy(m.Workers)
	r := &Ring{workers: ws, seeds: make([]uint64, len(ws))}
	for i, w := range ws {
		r.seeds[i] = fnv64a(w.Name)
	}
	return r, nil
}

// Workers returns the ring's membership in canonical (name) order. The
// slice is shared; callers must not mutate it.
func (r *Ring) Workers() []Worker { return r.workers }

// Len returns the number of workers.
func (r *Ring) Len() int { return len(r.workers) }

// Owner returns the worker that owns the given platform key.
func (r *Ring) Owner(key string) Worker {
	kh := fnv64a(key)
	best, bestScore := 0, mix(r.seeds[0], kh)
	for i := 1; i < len(r.seeds); i++ {
		if s := mix(r.seeds[i], kh); s > bestScore {
			best, bestScore = i, s
		}
	}
	return r.workers[best]
}

// fnv64a is the 64-bit FNV-1a hash (inlined to keep the ring dependency-
// free and its constants explicit — the on-disk shard map must route the
// same way forever, so the hash is part of the wire format).
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix combines a worker seed and a key hash into the rendezvous score
// (a splitmix64-style finalizer: FNV alone correlates too strongly
// between similar worker names to balance the ring).
func mix(seed, key uint64) uint64 {
	x := seed ^ key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Table is the reloadable ring holder: routing loads the current ring
// with one atomic pointer read, and a SIGHUP reload swaps in a freshly
// built ring without pausing traffic. In-flight requests finish on the
// ring they started with.
type Table struct {
	ring atomic.Pointer[Ring]
}

// NewTable returns a table serving the given ring.
func NewTable(r *Ring) *Table {
	t := &Table{}
	t.ring.Store(r)
	return t
}

// Ring returns the current ring.
func (t *Table) Ring() *Ring { return t.ring.Load() }

// Store swaps the current ring.
func (t *Table) Store(r *Ring) { t.ring.Store(r) }

// Owner routes one key on the current ring.
func (t *Table) Owner(key string) Worker { return t.ring.Load().Owner(key) }
