package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pilgrim/internal/platform"
)

// The pool tests assert on PoolStats deltas and on the pool's own tables,
// never on timing. The counters are process-wide, so every test measures
// against a reading taken at its own start; none of them runs in parallel
// with another test.

// runTrace is everything observable about one simulation: per scheduled
// activity its id and admission error, its completion date bit for bit,
// then the run's outcome and solver statistics.
type runTrace struct {
	IDs      []ActivityID
	AddErrs  []string
	DoneBits []uint64
	Finished int
	RunErr   string
	Stats    SharingStats
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// schedulePlan installs w on e — background flow, transfers, computations —
// tolerating admission failures (a failed link or host in e's epoch), which
// are part of the trace.
func schedulePlan(e *Engine, w refWorkload) runTrace {
	var tr runTrace
	note := func(id ActivityID, err error) {
		tr.IDs = append(tr.IDs, id)
		tr.AddErrs = append(tr.AddErrs, errText(err))
	}
	note(e.AddBackgroundFlow(w.bgPair[0], w.bgPair[1], 0))
	for _, c := range w.comms {
		note(e.AddComm(c.Src, c.Dst, c.Size, c.Start))
	}
	for _, x := range w.execs {
		note(e.AddExec(x.Src, x.Size, 0))
	}
	return tr
}

// finishPlan withdraws the background flow at its scheduled date (by
// stepping up to it) and runs the engine dry.
func finishPlan(e *Engine, w refWorkload, tr runTrace) runTrace {
	var err error
	for err == nil && e.Now() < w.bgOff {
		var ok bool
		if _, ok, err = e.Step(); !ok {
			break
		}
	}
	if err == nil && tr.AddErrs[0] == "" {
		err = e.RemoveBackgroundFlow(tr.IDs[0])
	}
	if err == nil {
		tr.Finished, err = e.RunToCompletion(nil)
	}
	tr.RunErr = errText(err)
	for i, id := range tr.IDs {
		bits := uint64(0)
		if done, at := e.Done(id); done && tr.AddErrs[i] == "" {
			bits = math.Float64bits(at)
		}
		tr.DoneBits = append(tr.DoneBits, bits)
	}
	tr.Stats = e.SharingStats()
	return tr
}

func runPlanTrace(e *Engine, w refWorkload) runTrace {
	return finishPlan(e, w, schedulePlan(e, w))
}

// wildEpoch derives an epoch of snap that differs in everything an engine
// could have cached: link bandwidths and latencies, host speeds, one
// failed link and one failed host.
func wildEpoch(t testing.TB, rng *rand.Rand, snap *platform.Snapshot) *platform.Snapshot {
	t.Helper()
	var links []platform.OverlayLink
	for li := int32(0); li < int32(snap.NumLinks()); li++ {
		u := platform.OverlayLink{Link: li, Bandwidth: math.NaN(), Latency: math.NaN()}
		if rng.Intn(3) > 0 {
			u.Bandwidth = snap.LinkBandwidth(li) * (0.3 + rng.Float64())
		}
		if rng.Intn(3) > 0 {
			u.Latency = rng.Float64() * 2e-3
		}
		links = append(links, u)
	}
	links[rng.Intn(len(links))].Bandwidth = 0
	var hosts []platform.OverlayHost
	for hi := int32(0); hi < int32(snap.NumHosts()); hi++ {
		if rng.Intn(2) == 0 {
			hosts = append(hosts, platform.OverlayHost{Host: hi, Speed: snap.HostSpeed(hi) * (0.5 + rng.Float64())})
		}
	}
	hosts = append(hosts, platform.OverlayHost{Host: int32(rng.Intn(snap.NumHosts())), Speed: 0})
	out, err := snap.ApplyOverlay(links, hosts, "wild")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// parkedOf returns the parked engines of snap's flavour.
func parkedOf(snap *platform.Snapshot, cfg Config) []*Engine {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	if p := pools[poolKey{topo: snap.TopologyID(), cfg: cfg}]; p != nil {
		return append([]*Engine(nil), p.free...)
	}
	return nil
}

// TestEnginePoolRebindBitIdentical is the soundness test of pooling by
// topology: an engine that ran on epoch A — to completion, or abandoned
// mid-flight — and is then acquired for an epoch B differing from A in
// bandwidths, latencies, host speeds and availability must be
// indistinguishable from a fresh NewEngineSnapshot(B): same activity ids,
// same admission errors, same completion dates and SharingStats, bit for
// bit.
func TestEnginePoolRebindBitIdentical(t *testing.T) {
	completions, refusals := 0, 0
	for seed := int64(0); seed < 48; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			hosts := 3 + rng.Intn(6)
			plat := buildRandomPlatform(t, rng, hosts)
			cfg := DefaultConfig()
			if rng.Intn(2) == 0 {
				cfg.TCPGamma = 0
			}
			base := plat.Snapshot()
			epochA, epochB := wildEpoch(t, rng, base), wildEpoch(t, rng, base)
			wA, wB := randomWorkload(rng, hosts), randomWorkload(rng, hosts)
			want := runPlanTrace(NewEngineSnapshot(epochB, cfg), wB)
			for i, msg := range want.AddErrs {
				if msg != "" {
					refusals++
				} else if want.DoneBits[i] != 0 {
					completions++
				}
			}

			// The flavour is new (fresh platform): the engine released below
			// is the only one the next acquire can be handed.
			for _, abandon := range []bool{false, true} {
				e := AcquireEngineSnapshot(epochA, cfg)
				if abandon {
					schedulePlan(e, wA)
					for i := 0; i < 1+rng.Intn(8); i++ {
						if _, ok, err := e.Step(); err != nil || !ok {
							break
						}
					}
				} else {
					runPlanTrace(e, wA)
				}
				ReleaseEngine(e)
				if e.snap != nil {
					t.Fatal("released engine still references its snapshot")
				}
				r := AcquireEngineSnapshot(epochB, cfg)
				if r != e {
					t.Fatalf("abandon=%v: acquire on epoch B did not recycle the engine released from epoch A", abandon)
				}
				got := runPlanTrace(r, wB)
				ReleaseEngine(r)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("abandon=%v: recycled engine diverged from fresh\n got %+v\nwant %+v", abandon, got, want)
				}
			}
		})
	}
	// Epoch B must both run transfers and refuse some (failed link/host),
	// or the comparison proves less than it claims.
	if completions < 150 || refusals < 50 {
		t.Fatalf("coverage hole: %d completions, %d refused admissions over all seeds", completions, refusals)
	}
}

// TestEnginePoolRebindConcurrent acquires across epochs of one topology
// from many goroutines at once (run it under -race): every run must match
// the trace a fresh engine produced for its epoch.
func TestEnginePoolRebindConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const hosts = 6
	plat := buildRandomPlatform(t, rng, hosts)
	cfg := DefaultConfig()
	base := plat.Snapshot()
	const epochs = 6
	snaps := make([]*platform.Snapshot, epochs)
	loads := make([]refWorkload, epochs)
	want := make([]runTrace, epochs)
	for i := range snaps {
		snaps[i] = wildEpoch(t, rng, base)
		loads[i] = randomWorkload(rng, hosts)
		want[i] = runPlanTrace(NewEngineSnapshot(snaps[i], cfg), loads[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				i := (g + it) % epochs
				e := AcquireEngineSnapshot(snaps[i], cfg)
				got := runPlanTrace(e, loads[i])
				ReleaseEngine(e)
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d iteration %d: epoch %d diverged from fresh", g, it, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(parkedOf(base, cfg)); n == 0 || n > 8 || n > maxFreePerPool {
		t.Errorf("%d engines parked after 8 concurrent users", n)
	}
}

// TestEnginePoolOneFlavourPerTopology is the regression test for the
// per-epoch pool: a stream of epochs nobody has simulated before — what
// update_links and what-if scenarios produce — must be served by ONE
// engine parked under ONE flavour that references no snapshot. Keyed by
// epoch, the same stream built 300 engines, left 64 flavours behind (each
// pinning its epoch) and evicted an arbitrary one — the hot base epoch
// included — on every miss past the 64th.
func TestEnginePoolOneFlavourPerTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const hosts = 5
	plat := buildRandomPlatform(t, rng, hosts)
	cfg := DefaultConfig()
	snap := plat.Snapshot()
	w := randomWorkload(rng, hosts)
	before := PoolStats()

	for i := 0; i < 300; i++ {
		li := int32(rng.Intn(snap.NumLinks()))
		var err error
		if i%2 == 0 {
			snap, err = snap.ApplyOverlay([]platform.OverlayLink{{Link: li,
				Bandwidth: snap.LinkBandwidth(li) * (0.9 + 0.2*rng.Float64()), Latency: math.NaN()}}, nil, "churn")
		} else {
			snap, err = snap.WithLinkState([]platform.LinkUpdate{{Link: snap.LinkName(li),
				Bandwidth: snap.LinkBandwidth(li) * (0.9 + 0.2*rng.Float64()), Latency: rng.Float64() * 1e-3}})
		}
		if err != nil {
			t.Fatal(err)
		}
		e := AcquireEngineSnapshot(snap, cfg)
		if tr := runPlanTrace(e, w); tr.RunErr != "" {
			t.Fatalf("epoch %d: %s", i, tr.RunErr)
		}
		ReleaseEngine(e)
	}

	after := PoolStats()
	if got := after.Acquired - before.Acquired; got != 300 {
		t.Errorf("acquired %d engines, want 300", got)
	}
	if got := after.Built - before.Built; got > 1 {
		t.Errorf("built %d engines for 300 sequential epochs, want at most 1", got)
	}
	parked := parkedOf(snap, cfg)
	if len(parked) == 0 || len(parked) > maxFreePerPool {
		t.Errorf("%d engines parked, want 1..%d", len(parked), maxFreePerPool)
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	flavours := 0
	for key, p := range pools {
		if key.topo == snap.TopologyID() {
			flavours++
		}
		for _, e := range p.free {
			if e.snap != nil {
				t.Errorf("parked engine of flavour %v pins epoch %d", key.cfg, e.snap.Epoch())
			}
		}
	}
	if flavours != 1 {
		t.Errorf("300 epochs of one topology are pooled under %d flavours, want 1", flavours)
	}
}

// TestEnginePoolEvictsLeastRecentlyUsedFlavour cycles more platforms than
// the pool holds flavours while one platform stays in use throughout: the
// hot flavour must never be the one evicted.
func TestEnginePoolEvictsLeastRecentlyUsedFlavour(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultConfig()
	hot := buildRandomPlatform(t, rng, 3).Snapshot()
	use := func(s *platform.Snapshot) {
		e := AcquireEngineSnapshot(s, cfg)
		if _, err := e.AddComm("h0", "h1", 1e6, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunToCompletion(nil); err != nil {
			t.Fatal(err)
		}
		ReleaseEngine(e)
	}
	use(hot)
	before := PoolStats()
	const strangers = 2*maxPoolKeys + 3
	for i := 0; i < strangers; i++ {
		use(buildRandomPlatform(t, rng, 3).Snapshot())
		use(hot)
	}
	after := PoolStats()
	if got := after.Built - before.Built; got != strangers {
		t.Errorf("built %d engines, want %d (one per stranger, none for the hot platform)", got, strangers)
	}
	if after.Flavours > maxPoolKeys {
		t.Errorf("%d flavours held, cap is %d", after.Flavours, maxPoolKeys)
	}
	if len(parkedOf(hot, cfg)) != 1 {
		t.Error("hot flavour lost its parked engine")
	}
}
