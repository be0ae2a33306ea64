// Package keyed is the serving stack's one bounded cache: an LRU of at
// most capacity entries plus a flight table that lets at most one caller
// build a missing key while the others wait for its answer. The forecast
// cache, the scenario overlay cache, the engine pool's flavours and the
// gateway's fan-out coalescing are each one Cache.
//
// A Cache is not self-locking: the owner's mutex, handed to New, guards
// it, so an owner can probe the cache and update its own side indexes in
// one critical section. Call every method with that mutex held, except
// Complete, Abandon, Wait and Do, which take it themselves. Flights work
// whatever the capacity: at capacity <= 0 nothing is stored, but
// concurrent builds of one key are still shared.
//
// Deadlock rule. A participant that both leads and follows flights (an
// evaluate supergroup) MUST settle every flight it leads before it waits
// on any flight it follows, and a leader never blocks on anything a
// follower holds: forecast leaders simulate inline, evaluate leaders
// register flights only after their worker-pool slot is acquired, and an
// overlay leader's derivation waits on nothing. Every wait chain then
// ends at a leader that settles without waiting.
package keyed

import (
	"context"
	"sync"
)

// Cache is a bounded LRU with a flight table; see the package comment.
type Cache[K comparable, V any] struct {
	mu       sync.Locker
	capacity int
	onEvict  func(K, V)
	index    map[K]*Entry[K, V]
	root     Entry[K, V] // sentinel of the recency ring: root.next is the most recently used
	flights  map[K]*Flight[V]
	counts   Counts
}

// Counts is a Cache's accounting: a probe that finds its key is a hit,
// one that joins another caller's flight is coalesced, any other a miss.
type Counts struct {
	Hits, Misses, Coalesced uint64
}

// Entry is one cached value. Its address is stable while it is cached, so
// an owner's side index may hold it and Touch it without hashing its key.
type Entry[K comparable, V any] struct {
	Value      V // read and updated in place under the owner's mutex
	key        K
	reused     bool
	prev, next *Entry[K, V]
}

// Reused reports whether the entry has been hit since it was added.
func (e *Entry[K, V]) Reused() bool { return e.reused }

// Flight is one build in progress. done closes once the result is set;
// the close is the happens-before edge waiters read it through.
type Flight[V any] struct {
	done      chan struct{}
	val       V
	err       error
	abandoned bool
}

// New returns an empty cache of at most capacity entries, guarded by mu.
// onEvict, if not nil, is handed each entry evicted to make room.
func New[K comparable, V any](mu sync.Locker, capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{mu: mu, capacity: capacity, onEvict: onEvict,
		index: make(map[K]*Entry[K, V]), flights: make(map[K]*Flight[V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len is the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.index) }

// Capacity is the bound New was given.
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Counts returns the accounting so far.
func (c *Cache[K, V]) Counts() Counts { return c.counts }

// Flights is the number of unsettled flights.
func (c *Cache[K, V]) Flights() int { return len(c.flights) }

// Peek returns the entry cached under k without touching or counting it.
func (c *Cache[K, V]) Peek(k K) (*Entry[K, V], bool) {
	e, ok := c.index[k]
	return e, ok
}

// Touch counts a hit on e, a cached entry, and makes it the most recently
// used.
func (c *Cache[K, V]) Touch(e *Entry[K, V]) {
	c.counts.Hits++
	e.reused = true
	c.unlink(e)
	c.pushFront(e)
}

// Add caches v under k as the most recently used entry, evicting the least
// recently used one beyond capacity. An entry already cached under k wins
// and is returned unchanged. At capacity <= 0 Add stores nothing and
// returns nil.
func (c *Cache[K, V]) Add(k K, v V) *Entry[K, V] {
	if c.capacity <= 0 {
		return nil
	}
	if e, ok := c.index[k]; ok {
		return e
	}
	e := &Entry[K, V]{Value: v, key: k}
	c.index[k] = e
	c.pushFront(e)
	if len(c.index) > c.capacity {
		old := c.root.prev
		c.unlink(old)
		delete(c.index, old.key)
		if c.onEvict != nil {
			c.onEvict(old.key, old.Value)
		}
	}
	return e
}

// Each calls f on every entry, most recently used first. f must not
// change the cache.
func (c *Cache[K, V]) Each(f func(K, V)) {
	for e := c.root.next; e != &c.root; e = e.next {
		f(e.key, e.Value)
	}
}

func (c *Cache[K, V]) pushFront(e *Entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) unlink(e *Entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

// Lead probes the LRU, then the flight table. Exactly one outcome holds:
//   - e != nil: a hit (counted, touched);
//   - leader: a miss (counted); the caller owns the new flight f and MUST
//     settle it with Complete or Abandon — except when join is false and
//     another caller owns k's flight: then f is nil and the caller builds
//     beside it (it may still Complete with a nil f to store the answer);
//   - otherwise f is another caller's flight (counted as coalesced).
func (c *Cache[K, V]) Lead(k K, join bool) (e *Entry[K, V], f *Flight[V], leader bool) {
	if e, ok := c.index[k]; ok {
		c.Touch(e)
		return e, nil, false
	}
	owner := c.flights[k]
	if owner != nil && join {
		c.counts.Coalesced++
		return nil, owner, false
	}
	c.counts.Misses++
	if owner == nil {
		f = &Flight[V]{done: make(chan struct{})}
		c.flights[k] = f
	}
	return nil, f, true
}

// retire removes f from the flight table and reports whether it was
// there — true once per flight, for the caller that then settles it.
func (c *Cache[K, V]) retire(k K, f *Flight[V]) bool {
	if f == nil || c.flights[k] != f {
		return false
	}
	delete(c.flights, k)
	return true
}

// Complete publishes the answer to k and settles f (nil for an answer built
// beside another caller's flight). A successful answer is stored BEFORE
// the waiters wake, so a request arriving after the wake-up finds the
// entry instead of building it again.
func (c *Cache[K, V]) Complete(k K, f *Flight[V], v V, err error) {
	c.mu.Lock()
	if err == nil {
		c.Add(k, v)
	}
	own := c.retire(k, f)
	c.mu.Unlock()
	if own {
		f.val, f.err = v, err
		close(f.done)
	}
}

// Abandon settles f without an answer (its leader unwound: a panic); each
// waiter re-enters the protocol, so they elect one new leader. It is a
// no-op on a nil or settled flight, so a blanket deferred Abandon is safe
// after Complete.
func (c *Cache[K, V]) Abandon(k K, f *Flight[V]) {
	if f == nil {
		return
	}
	c.mu.Lock()
	own := c.retire(k, f)
	c.mu.Unlock()
	if own {
		f.abandoned = true
		close(f.done)
	}
}

// Wait waits for f, the flight Lead joined for k, until ctx ends: a
// waiter gives up on its own deadline even while the leader runs on. If
// the leader abandoned f, the caller re-enters the protocol through Do.
func (c *Cache[K, V]) Wait(ctx context.Context, k K, f *Flight[V], build func() (V, error)) (V, error) {
	select {
	case <-f.done:
		if f.abandoned {
			return c.Do(ctx, k, build)
		}
		return f.val, f.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// Do answers k from the LRU, from another caller's flight (waiting under
// ctx), or by leading a flight and calling build on the caller's
// goroutine. A panic in build abandons the flight and propagates.
func (c *Cache[K, V]) Do(ctx context.Context, k K, build func() (V, error)) (v V, err error) {
	c.mu.Lock()
	e, f, leader := c.Lead(k, true)
	if e != nil {
		v = e.Value
	}
	c.mu.Unlock()
	switch {
	case e != nil:
		return v, nil
	case !leader:
		return c.Wait(ctx, k, f, build)
	}
	defer c.Abandon(k, f) // fires only when build panics
	v, err = build()
	c.Complete(k, f, v, err)
	return v, err
}
