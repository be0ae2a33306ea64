package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pilgrim/internal/keyed"
	"pilgrim/internal/platform"
)

// This file implements process-wide engine pooling. A forecast service
// answers every request by building a simulation, running it for a few
// hundred events and throwing it away; at production request rates the
// engine, its event heap, its flow system and all their internal slices
// become pure allocator churn. The pool recycles complete engines.
//
// Key. Engines are pooled per (compiled topology, Config) — per platform,
// not per epoch. The service's link state changes with every measurement
// and every what-if scenario derives an epoch of its own, so most
// simulations run on an epoch nobody has simulated before; a pool keyed
// by epoch would miss on exactly those requests, build an engine from
// nothing, and park it under a key that is never asked for again.
//
// Why rebinding is sound. Acquire pops any parked engine of the
// snapshot's topology and sets its snap pointer; that is the whole
// rebinding, because a Reset engine holds no epoch-specific state:
//   - Reset clears the activity arena's references (routes, flow
//     variables), the event heap, the completion ledger and the
//     flow system, and empties linkCnst/hostCnst — the only places a
//     capacity is ever stored;
//   - what survives is storage sized by the topology (linkCnst by
//     NumLinks, hostCnst by NumHosts — every epoch of a topology shares
//     both) or by the previous workload's shape (arena, heap, solver free
//     lists), plus cfg, which is the other half of the key;
//   - every epoch-dependent value is read from e.snap when it is needed:
//     route latency and availability in AddComm/AddExec, link bandwidth in
//     activate (via linkConstraint), host speed in hostConstraint.
// A recycled engine is therefore observably a fresh NewEngineSnapshot on
// the new epoch: same ids, same solver serials, bit-identical results.
//
// No off switch. The oracle for "pooling is invisible" is a fresh engine,
// and the tests compare against one bit for bit (TestEnginePoolBitIdentical,
// TestEnginePoolRebindBitIdentical, engine_ref_test.go); a runtime flag
// would only add a second configuration to test.
//
// What a parked engine retains: its buffers (a few tens of KB on g5k_test:
// two topology-sized pointer arrays, the arena, the heap, the flow
// system's recycled variables and constraints) and cfg — and no snapshot:
// Release drops the reference, so a parked engine never pins a superseded
// epoch. The flavour's map key holds the compiled topology alive.
//
// Bounds. Memory is bounded by flavours × maxFreePerPool engines: one
// flavour per (platform, Config) in use, at most maxPoolKeys of them (a
// keyed LRU without flights: the least recently acquired flavour is
// evicted beyond that — a process cycling through many platforms, such as
// the test suite), each parking at most maxFreePerPool idle engines (a
// burst's concurrency high-water mark, not its total). Evicted or surplus
// engines are simply garbage.

type poolKey struct {
	topo platform.TopologyID
	cfg  Config
}

const maxPoolKeys = 64

var maxFreePerPool = 4 * runtime.GOMAXPROCS(0)

// One mutex guards the flavour LRU and every free list: the critical
// sections are a lookup and a slice push/pop, against tens of
// microseconds of simulation between them.
var (
	poolsMu sync.Mutex
	pools   = keyed.New[poolKey, []*Engine](&poolsMu, maxPoolKeys, nil)

	poolAcquired atomic.Uint64
	poolBuilt    atomic.Uint64
)

// PoolCounters is a point-in-time view of the process-wide engine pool.
// Built per request is the number to watch: in steady state it is zero —
// every acquire, on whatever epoch, is served by a parked engine. The
// metric tags name the fields' pilgrimd /metrics families.
type PoolCounters struct {
	Acquired uint64 `json:"acquired" metric:"pilgrim_engine_pool_acquired_total" help:"Simulation engines handed out by the process-wide pool."`
	Reused   uint64 `json:"reused" metric:"-"` // ... of which were recycled from the pool
	Built    uint64 `json:"built" metric:"pilgrim_engine_pool_built_total" help:"Acquires that constructed an engine instead of recycling one (steady state: flat)."`
	Parked   int    `json:"parked" metric:"pilgrim_engine_pool_parked" help:"Idle engines currently held by the pool."`
	Flavours int    `json:"flavours" metric:"-"` // (topology, Config) keys currently held
}

// PoolStats returns the engine pool's counters.
func PoolStats() PoolCounters {
	// Built is loaded first so a concurrent acquire can only make Reused
	// err high by one, never wrap below zero.
	built := poolBuilt.Load()
	s := PoolCounters{Acquired: poolAcquired.Load(), Built: built}
	s.Reused = s.Acquired - built
	poolsMu.Lock()
	s.Flavours = pools.Len()
	pools.Each(func(_ poolKey, free []*Engine) { s.Parked += len(free) })
	poolsMu.Unlock()
	return s
}

// AcquireEngineSnapshot returns a ready-to-use engine for one compiled
// platform epoch: any parked engine of snap's topology and cfg, rebound to
// snap, or a new one when none is parked. Pass it back with ReleaseEngine
// when the simulation's results have been read.
func AcquireEngineSnapshot(snap *platform.Snapshot, cfg Config) *Engine {
	key := poolKey{topo: snap.TopologyID(), cfg: cfg}
	var e *Engine
	poolsMu.Lock()
	p := pools.Add(key, nil) // the flavour's entry, new or not
	pools.Touch(p)
	if n := len(p.Value); n > 0 {
		e = p.Value[n-1]
		p.Value[n-1] = nil
		p.Value = p.Value[:n-1]
	}
	poolsMu.Unlock()

	poolAcquired.Add(1)
	if e == nil {
		poolBuilt.Add(1)
		e = NewEngineSnapshot(snap, cfg)
		e.pooled = true
		return e
	}
	e.snap = snap
	e.released = false
	return e
}

// ReleaseEngine resets the engine, drops its snapshot reference and parks
// it for the next acquire on any epoch of the same topology, unless its
// flavour was evicted meanwhile or parks enough engines already. The caller
// must not use the engine — or any ActivityID it handed out — afterwards.
// Engines that did not come from AcquireEngineSnapshot, and engines already
// released, are ignored, so Release is always safe to call.
func ReleaseEngine(e *Engine) {
	if e == nil || !e.pooled || e.released {
		return
	}
	e.Reset()
	key := poolKey{topo: e.snap.TopologyID(), cfg: e.cfg}
	e.snap = nil
	e.released = true
	poolsMu.Lock()
	if p, ok := pools.Peek(key); ok && len(p.Value) < maxFreePerPool {
		p.Value = append(p.Value, e)
	}
	poolsMu.Unlock()
}
