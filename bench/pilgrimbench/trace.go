package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/store"
)

// This file is the tracing vocabulary: the layers (this repo's packages),
// spans, and the two recorders that sit on a real request — the handler
// wrapper and the storage decorator. wire and pilgrim.server are truly
// nested on the request; every layer below is replayed afterwards, on the
// same inputs and epoch, at its public entry point (replay.go) — no file
// outside bench/ carries a span. A layer's self time is its span minus
// the spans of the layers below it.

type layerID int

const (
	lWire layerID = iota
	lServer
	lCache
	lEvaluate
	lScenario
	lSim
	lPlatform
	lFlow
	lRegistry
	lStore
	lPlatgen
	numLayers
)

var layerNames = [numLayers]string{
	"wire", "pilgrim.server", "pilgrim.cache", "pilgrim.evaluate", "scenario",
	"sim", "platform", "flow", "pilgrim.registry", "store", "platgen",
}

// layerChildren lists, per layer, the layers directly below it. platform
// sits under sim (routes) and under pilgrim.registry (timeline append);
// one op enters it through one of them only.
var layerChildren = [numLayers][]layerID{
	lWire:     {lServer},
	lServer:   {lCache, lEvaluate, lRegistry},
	lCache:    {lSim},
	lEvaluate: {lScenario, lSim},
	lSim:      {lPlatform, lFlow},
	lRegistry: {lStore, lPlatform},
}

// span is one recorded interval; times are nanoseconds since the trace
// began, Parent the ID of the span that caused it (-1 for wire).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace is the per-layer time of one op.
type opTrace struct {
	dur     [numLayers]time.Duration
	entered [numLayers]bool
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// The traced run has one client, so "the op in flight" is one value;
	// the handler wrapper reads it to link its span to the wire span.
	curOp   atomic.Uint64
	curWire atomic.Int64
	// serverID/serverDur are the handler wrapper's span of the op in flight.
	serverID  atomic.Int64
	serverDur atomic.Int64
}

// begin reserves the wire span of op and makes it the op in flight; end
// fills in its interval once the answer has been read.
func (t *tracer) begin(op uint64) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Op: op, Name: layerNames[lWire]})
	t.mu.Unlock()
	t.curOp.Store(op)
	t.curWire.Store(int64(id))
	return id
}

func (t *tracer) end(id int, start, end time.Time) {
	t.mu.Lock()
	t.spans[id].Start, t.spans[id].End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Unlock()
}

func (t *tracer) add(name string, parent int, op uint64, start, end time.Time) int {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
	return id
}

// wrap is the pilgrim.server boundary: an http.Handler around the
// *pilgrim.Server, nested inside the client's round trip.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := t.add(layerNames[lServer], int(t.curWire.Load()), t.curOp.Load(), start, end)
		t.serverID.Store(int64(id))
		t.serverDur.Store(int64(end.Sub(start)))
	})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Note  string `json:"note"`
		Spans []span `json:"spans"`
	}{
		Note:  "wire and pilgrim.server are nested on the request; lower layers are replayed after it on the same inputs and epoch (see bench/README.md)",
		Spans: t.spans,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStorage is the store boundary: a pilgrim.Storage decorator
// bracketing the Append the registry makes per observation. (Sync and
// Compact pass through untimed: in a traced run they happen only at Close —
// compaction needs 4096 records — and the counts come from Stats().)
type timedStorage struct {
	pilgrim.Storage

	mu                 sync.Mutex
	lastStart, lastEnd time.Time // the most recent Append
}

func (s *timedStorage) Append(r store.Record) error {
	start := time.Now()
	err := s.Storage.Append(r)
	end := time.Now()
	s.mu.Lock()
	s.lastStart, s.lastEnd = start, end
	s.mu.Unlock()
	return err
}
