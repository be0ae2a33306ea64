package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
)

// traceBlock is how many ops one side answers before the other side
// takes its turn.
const traceBlock = 50

// tracedOp is one op answered by the traced server, kept for its replays.
// The answer itself is dropped (it aliases the client's buffer).
type tracedOp struct {
	r         sent
	entry     pilgrim.PlatformEntry // the epoch it was answered against
	serverID  int
	serverDur time.Duration
}

// tracedRun replays the first tracedOps ops with one client against two
// fresh servers — one plain, one behind the span-recording handler
// wrapper — and reduces the traced side to the layer table. The two sides
// take turns in blocks, alternating which goes first, so that drift of the
// box (a single closed-loop client is sensitive to it) lands on both and
// trace_overhead compares like with like. The replays of the lower layers
// run after the last block, in op order: interleaved they would keep the
// cores warm and the caches cold between requests of one side only.
func (b *bench) tracedRun(wl *workload, rep *workloadReport) error {
	plainLive, plainSess, err := b.bringUp(wl, assembleOptions{}, nil)
	if err != nil {
		return err
	}
	defer plainLive.stop()
	tr := &tracer{t0: time.Now()}
	lv, sess, err := b.bringUp(wl, assembleOptions{timeLayers: true}, tr)
	if err != nil {
		return err
	}
	defer lv.stop()
	rp := newReplayer(tr, lv)
	if wl.warmRoutes {
		for _, side := range []*live{plainLive, lv} {
			if err := b.world.warmRoutes(side.entry.Platform.Snapshot()); err != nil {
				return err
			}
		}
	}
	if wl.durable {
		dir, _, err := b.stage(wl)
		if err != nil {
			return err
		}
		shadow, err := assemble(assembleOptions{dataDir: dir, wrapStorage: func(s pilgrim.Storage) pilgrim.Storage {
			rp.storage = &timedStorage{Storage: s}
			return rp.storage
		}})
		if err != nil {
			return err
		}
		defer shadow.registry.Close()
		rp.shadowReg = shadow.registry
		rp.timeline = platform.NewTimeline(shadow.entry.Platform.Snapshot(), pilgrim.DefaultTimelineDepth)
	}

	plainClient, tracedClient := newClient(plainLive.base), newClient(lv.base)
	defer plainClient.close()
	defer tracedClient.close()
	var plain, traced []float64
	answered := make([]tracedOp, 0, b.p.tracedOps)
	runPlain := func(from, to uint64) {
		for n := from; n < to; n++ {
			byteCheck := byteChecked(n)
			r := plainSess.send(plainClient, n)
			if plainSess.verify(&r, byteCheck) {
				plain = append(plain, us(r.lat))
			}
		}
	}
	runTraced := func(from, to uint64) {
		for n := from; n < to; n++ {
			byteCheck := byteChecked(n)
			wire := tr.begin(n)
			r := sess.send(tracedClient, n)
			tr.end(wire, r.start, r.start.Add(r.lat))
			if !sess.verify(&r, byteCheck) {
				continue
			}
			rp.counts.bytesOut += int64(len(r.o.path) + len(r.o.body))
			rp.counts.bytesIn += int64(len(r.answer))
			r.answer = nil // aliases the client's buffer
			entry, _ := lv.registry.Get(platformName)
			answered = append(answered, tracedOp{r, entry, int(tr.serverID.Load()), time.Duration(tr.serverDur.Load())})
			traced = append(traced, us(r.lat))
		}
	}
	deadline := time.Now().Add(b.p.traceBudget)
	for from := uint64(0); from < uint64(b.p.tracedOps) && time.Now().Before(deadline); from += traceBlock {
		to := from + traceBlock
		if to > uint64(b.p.tracedOps) {
			to = uint64(b.p.tracedOps)
		}
		if (from/traceBlock)%2 == 0 {
			runPlain(from, to)
			runTraced(from, to)
		} else {
			runTraced(from, to)
			runPlain(from, to)
		}
	}
	rep.absorb(plainSess)

	// The first tenth of the ops warms the server up (caches fill, lazy
	// route tables build): it is replayed like the rest, so the replay
	// state mirrors the server's, and its spans are in the trace file, but
	// the layer table describes the ops after it — the state the timed
	// window measures.
	warm := uint64(b.p.tracedOps / 10)
	runtime.GC() // the replays should not pay for the requests' garbage
	traces := make([]opTrace, 0, len(answered))
	var kinds [3]int
	for _, st := range rp.replayAll(answered) {
		if st.err != nil {
			sess.fail("replaying op %d: %v", st.op.r.n, st.err)
			continue
		}
		if st.op.r.n >= warm {
			traces = append(traces, st.ot)
			kinds[st.op.r.o.kind]++
		}
	}
	rep.TracedOps = len(traces)

	stats, err := fetchCacheStats(tracedClient)
	if err != nil {
		return err
	}
	if mine := rp.cache.Stats(); mine.Hits != stats.Hits || mine.Misses != stats.Misses {
		sess.fail("the replay cache saw %d hits / %d misses, the server's %d / %d: the replays are not on the server's inputs",
			mine.Hits, mine.Misses, stats.Hits, stats.Misses)
	}
	rep.absorb(sess)
	if len(traces) == 0 {
		return fmt.Errorf("no op was traced")
	}

	table := aggregate(traces)
	table.calls[lPlatgen], table.busy[lPlatgen], table.self[lPlatgen] = 1, us(lv.platgenSpan), us(lv.platgenSpan)
	for l := layerID(0); l < numLayers; l++ {
		rep.Layers = append(rep.Layers, layerRow{layerNames[l], table.calls[l], table.busy[l], table.self[l], table.share[l]})
		// The driver's result line carries, per layer, how many ops entered
		// it and its share of the wire time — and times only for the layers
		// every op of every workload enters: a layer that a workload leaves
		// idle would report the same 0 us on every run, which the driver
		// takes for a hard-coded number. The table above has every layer's
		// busy_us and self_us.
		rep.PerLayer = append(rep.PerLayer, metric{layerNames[l] + ".calls", float64(table.calls[l]), "count"})
		switch l {
		case lWire, lServer:
			rep.PerLayer = append(rep.PerLayer,
				metric{layerNames[l] + ".busy_us", table.busy[l], "us"},
				metric{layerNames[l] + ".self_us", table.self[l], "us"},
				metric{layerNames[l] + ".share", table.share[l], "ratio"})
		case lPlatgen:
			rep.PerLayer = append(rep.PerLayer, metric{layerNames[l] + ".busy_us", table.busy[l], "us"})
		default:
			rep.PerLayer = append(rep.PerLayer, metric{layerNames[l] + ".share", table.share[l], "ratio"})
		}
		// The budget adds up when no layer's self time is negative beyond
		// noise: a negative one means a replay does not do the work the
		// layer above it does.
		if table.self[l] < -b.p.selfTolerance*table.busy[l] {
			rep.fail("%s: self time %.2f us is negative beyond %.0f %% of its %.2f us span", layerNames[l], table.self[l], 100*b.p.selfTolerance, table.busy[l])
		}
	}
	rep.StoreOpenUs = us(lv.storeOpenSpan)
	// Every op entered the layer under the server that its kind names,
	// once, and no other.
	for l, kind := range map[layerID]opKind{lCache: opPredict, lEvaluate: opEvaluate, lScenario: opEvaluate, lRegistry: opUpdate, lStore: opUpdate} {
		if table.calls[l] != kinds[kind] {
			rep.fail("%s was entered by %d ops, want %d", layerNames[l], table.calls[l], kinds[kind])
		}
	}

	k := rp.counts
	hitRatio := 0.0
	if lookups := stats.Hits + stats.Misses + stats.CoalescedHits; lookups > 0 {
		hitRatio = float64(stats.Hits+stats.CoalescedHits) / float64(lookups)
	}
	warmRatio := 0.0
	if k.derivedCells > 0 {
		warmRatio = float64(k.reuse+k.fork) / float64(k.derivedCells)
	}
	overhead := 0.0
	if m := median(plain); m > 0 {
		overhead = median(traced) / m
	}
	rep.PerLayer = append(rep.PerLayer,
		metric{"wire.bytes_out", float64(k.bytesOut), "B"},
		metric{"wire.bytes_in", float64(k.bytesIn), "B"},
		metric{"pilgrim.server.response_bytes", float64(k.bytesIn), "B"},
		metric{"pilgrim.server.admission_sheds", float64(stats.Admission.Shed), "count"},
		metric{"pilgrim.cache.hits", float64(stats.Hits), "count"},
		metric{"pilgrim.cache.misses", float64(stats.Misses), "count"},
		metric{"pilgrim.cache.coalesced", float64(stats.CoalescedHits), "count"},
		metric{"pilgrim.cache.hit_ratio", hitRatio, "ratio"},
		metric{"pilgrim.cache.evictions", float64(int(stats.Misses) - stats.Size), "count"},
		metric{"pilgrim.evaluate.reuse", float64(k.reuse), "count"},
		metric{"pilgrim.evaluate.fork", float64(k.fork), "count"},
		metric{"pilgrim.evaluate.cold", float64(k.cold), "count"},
		metric{"pilgrim.evaluate.base_groups", float64(k.baseGroups), "count"},
		metric{"pilgrim.evaluate.warm_ratio", warmRatio, "ratio"},
		metric{"scenario.mutations", float64(k.mutations), "count"},
		metric{"sim.resharings", float64(k.resharings), "count"},
		metric{"sim.variables_touched", float64(k.touched), "count"},
		metric{"platform.routes", float64(k.routes), "count"},
		metric{"platform.epochs_appended", float64(k.epochsAppended), "count"},
		metric{"flow.solves", float64(k.solves), "count"},
		metric{"flow.touched", float64(k.flowTouched), "count"},
		metric{"pilgrim.registry.epochs_minted", float64(k.epochsMinted), "count"},
		metric{"pilgrim.registry.rejects", float64(lv.registry.UpdateRejects(platformName)), "count"},
		metric{"store.appends", float64(stats.Storage.Appends), "count"},
		metric{"store.fsyncs", float64(stats.Storage.Fsyncs), "count"},
		metric{"store.compactions", float64(stats.Storage.Compactions), "count"},
		metric{"store.recovered_records", float64(stats.Storage.RecoveredRecords), "count"},
		metric{"platgen.hosts", float64(lv.hosts), "count"},
		metric{"platgen.links", float64(lv.links), "count"},
		metric{"trace_overhead", overhead, "ratio"},
	)

	if err := os.MkdirAll(b.p.outDir, 0o755); err != nil {
		return err
	}
	rep.TraceFile = filepath.Join(b.p.outDir, "trace-"+wl.name+".json")
	return tr.write(rep.TraceFile)
}

// layerTable is the traced run reduced per layer: how many ops entered
// it, the median span and median self time of those ops, and the layer's
// share of the wire time — calls × median self time over wire calls ×
// median wire span. Medians, not sums: one garbage collection landing in a
// replay would otherwise own a layer's total.
type layerTable struct {
	calls             [numLayers]int
	busy, self, share [numLayers]float64
}

func aggregate(traces []opTrace) layerTable {
	var t layerTable
	var busy, self [numLayers][]float64
	for i := range traces {
		ot := &traces[i]
		for l := layerID(0); l < numLayers; l++ {
			if !ot.entered[l] {
				continue
			}
			own := ot.dur[l]
			for _, child := range layerChildren[l] {
				if ot.entered[child] {
					own -= ot.dur[child]
				}
			}
			busy[l] = append(busy[l], us(ot.dur[l]))
			self[l] = append(self[l], us(own))
		}
	}
	for l := layerID(0); l < numLayers; l++ {
		t.calls[l] = len(busy[l])
		t.busy[l], t.self[l] = median(busy[l]), median(self[l])
	}
	if wire := float64(t.calls[lWire]) * t.busy[lWire]; wire > 0 {
		for l := layerID(0); l < numLayers; l++ {
			t.share[l] = float64(t.calls[l]) * t.self[l] / wire
		}
	}
	return t
}

// cacheStats is the part of GET /pilgrim/cache_stats the layer table uses.
type cacheStats struct {
	pilgrim.CacheStats
	Admission pilgrim.AdmissionStats `json:"admission"`
	Storage   struct {
		Appends          uint64 `json:"appends"`
		Compactions      uint64 `json:"compactions"`
		Fsyncs           uint64 `json:"fsyncs"`
		RecoveredRecords int    `json:"recovered_records"`
	} `json:"storage"`
}

func fetchCacheStats(c *client) (cacheStats, error) {
	var st cacheStats
	status, body, err := c.do("GET", "/pilgrim/cache_stats", nil)
	if err != nil {
		return st, err
	}
	if status != 200 {
		return st, fmt.Errorf("cache_stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}
