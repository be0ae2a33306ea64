package pilgrim

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
	"pilgrim/internal/store"
)

// walRegistry builds a WAL-backed registry over dir, registering the
// g5k_test mini platform under "p".
func walRegistry(t *testing.T, dir string, opts store.Options) *Registry {
	t.Helper()
	opts.Dir = dir
	w, rec, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.SetTimelineDepth(3)
	if err := reg.SetStorage(w, rec); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// statsJSON marshals the platform's timeline_stats — the byte-identical
// recovery contract is stated over this serialization.
func statsJSON(t *testing.T, reg *Registry) string {
	t.Helper()
	st, ok := reg.TimelineStats("p")
	if !ok {
		t.Fatal("platform missing")
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRegistryWarmRestart is the tentpole invariant: observe, estimate,
// reject, restart from the data directory — and timeline stats, epochs,
// forecasts, background estimate, and reject accounting all come back
// byte-identical.
func TestRegistryWarmRestart(t *testing.T) {
	dir := t.TempDir()
	reg := walRegistry(t, dir, store.Options{Fsync: store.FsyncAlways})

	// Overflow the depth-3 timeline so recovery must restore eviction
	// accounting, not just retained entries.
	series := []float64{1.0e8, 1.4e8, 0.9e8, 1.2e8, 1.1e8}
	for i, bw := range series {
		observe(t, reg, int64(1000+100*i), bw)
	}
	if err := reg.SetBackgroundEstimate("p", "drill", [][2]string{{"a", "b"}, {"c", "d"}}); err != nil {
		t.Fatal(err)
	}
	reg.RecordUpdateReject("p")
	reg.RecordUpdateReject("p")

	// Interleaved queries allocate epoch ids (forecast materialization)
	// that never reach the log — recovery must cope with the gaps.
	if _, err := reg.GetAt("p", 1700); err != nil {
		t.Fatal(err)
	}

	wantStats := statsJSON(t, reg)
	fut, err := reg.GetAt("p", 1500+600)
	if err != nil {
		t.Fatal(err)
	}
	li := mustLinkIdx(t, fut.Snapshot, testNIC)
	wantFutBW := fut.Snapshot.LinkBandwidth(li)
	past, err := reg.GetAt("p", 1250)
	if err != nil {
		t.Fatal(err)
	}
	wantPastEpoch, wantPastBW := past.Snapshot.Epoch(), past.Snapshot.LinkBandwidth(li)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := walRegistry(t, dir, store.Options{Fsync: store.FsyncAlways})
	defer reg2.Close()
	if got := statsJSON(t, reg2); got != wantStats {
		t.Fatalf("restored timeline_stats diverge:\n  orig:     %s\n  restored: %s", wantStats, got)
	}
	past2, err := reg2.GetAt("p", 1250)
	if err != nil {
		t.Fatal(err)
	}
	if past2.Snapshot.Epoch() != wantPastEpoch || past2.Snapshot.LinkBandwidth(li) != wantPastBW {
		t.Fatalf("past answer diverges: epoch %d bw %v, want %d %v",
			past2.Snapshot.Epoch(), past2.Snapshot.LinkBandwidth(li), wantPastEpoch, wantPastBW)
	}
	fut2, err := reg2.GetAt("p", 1500+600)
	if err != nil {
		t.Fatal(err)
	}
	if got := fut2.Snapshot.LinkBandwidth(li); got != wantFutBW {
		t.Fatalf("forecast diverges after restart: %v, want %v", got, wantFutBW)
	}
	flows, source, ok := reg2.BackgroundEstimate("p")
	if !ok || source != "drill" || len(flows) != 2 || flows[1] != [2]string{"c", "d"} {
		t.Fatalf("background estimate lost: %v %q %v", flows, source, ok)
	}
	if got := reg2.UpdateRejects("p"); got != 2 {
		t.Fatalf("rejects restored as %d, want 2", got)
	}

	// New observations must take epochs beyond everything restored.
	snap := observe(t, reg2, 2000, 1.3e8)
	if snap.Epoch() <= wantPastEpoch {
		t.Fatalf("post-restart epoch %d aliases a restored id", snap.Epoch())
	}
}

// TestRegistryWarmRestartAcrossCompaction drives enough observations to
// trigger background snapshot compaction, keeps going (log tail on top
// of the snapshot), and checks the restart is still byte-identical.
func TestRegistryWarmRestartAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := walRegistry(t, dir, store.Options{Fsync: store.FsyncAlways, CompactEvery: 5})
	for i := 0; i < 9; i++ {
		observe(t, reg, int64(1000+10*i), 1e8+float64(float64(i)*1e6))
	}
	// The compactor runs off the request path; wait for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, ok := reg.StorageStats(); ok && st.Compactions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 9; i < 12; i++ {
		observe(t, reg, int64(1000+10*i), 1e8+float64(float64(i)*1e6))
	}
	wantStats := statsJSON(t, reg)
	fut, err := reg.GetAt("p", 1110+60)
	if err != nil {
		t.Fatal(err)
	}
	li := mustLinkIdx(t, fut.Snapshot, testNIC)
	wantFutBW := fut.Snapshot.LinkBandwidth(li)
	reg.Close()

	reg2 := walRegistry(t, dir, store.Options{Fsync: store.FsyncAlways, CompactEvery: 5})
	defer reg2.Close()
	if got := statsJSON(t, reg2); got != wantStats {
		t.Fatalf("post-compaction restore diverges:\n  orig:     %s\n  restored: %s", wantStats, got)
	}
	fut2, err := reg2.GetAt("p", 1110+60)
	if err != nil {
		t.Fatal(err)
	}
	if got := fut2.Snapshot.LinkBandwidth(li); got != wantFutBW {
		t.Fatalf("forecast diverges after compacted restart: %v, want %v", got, wantFutBW)
	}
}

// TestRegistryRecoveryWithoutClose simulates a kill: the first registry
// is never closed, yet (records hit the file on append) a second open of
// the same directory recovers every acknowledged observation.
func TestRegistryRecoveryWithoutClose(t *testing.T) {
	dir := t.TempDir()
	reg := walRegistry(t, dir, store.Options{Fsync: store.FsyncAlways})
	for i := 0; i < 4; i++ {
		observe(t, reg, int64(1000+10*i), 1e8+float64(float64(i)*1e6))
	}
	wantStats := statsJSON(t, reg)
	// No Close: the process "dies" here.

	reg2 := walRegistry(t, dir, store.Options{Fsync: store.FsyncAlways})
	defer reg2.Close()
	if got := statsJSON(t, reg2); got != wantStats {
		t.Fatalf("kill recovery diverges:\n  orig:     %s\n  restored: %s", wantStats, got)
	}
}

// TestRegistryRefusesForeignDataDir checks Add fails loudly when the
// data directory's recovered state belongs to a different platform
// (link-count mismatch) instead of replaying onto the wrong topology.
func TestRegistryRefusesForeignDataDir(t *testing.T) {
	dir := t.TempDir()
	reg := walRegistry(t, dir, store.Options{Fsync: store.FsyncAlways})
	observe(t, reg, 1000, 1e8)
	reg.Close()

	w, rec, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	other, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KCabinets})
	if err != nil {
		t.Fatal(err)
	}
	if other.Snapshot().NumLinks() == mustNumLinks(t) {
		t.Skip("variants share a link count; mismatch not expressible")
	}
	reg2 := NewRegistry()
	if err := reg2.SetStorage(w, rec); err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	if err := reg2.Add("p", PlatformEntry{Platform: other, Config: sim.DefaultConfig()}); err == nil {
		t.Fatal("foreign data directory accepted")
	}
}

func mustNumLinks(t *testing.T) int {
	t.Helper()
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	return plat.Snapshot().NumLinks()
}

// TestRegistryConcurrentIngestAndCompaction races observations, estimate
// registrations, rejects, and readers against a compaction threshold low
// enough to fire constantly — the -race target for the ingest gate.
func TestRegistryConcurrentIngestAndCompaction(t *testing.T) {
	dir := t.TempDir()
	reg := walRegistry(t, dir, store.Options{Fsync: store.FsyncNever, CompactEvery: 4})

	const observations = 300
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < observations; i++ {
			if _, err := reg.ObserveLinkState("p", int64(1000+i), "race", []platform.LinkUpdate{
				{Link: testNIC, Bandwidth: 1e8 + float64(i), Latency: -1}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			reg.SetBackgroundEstimate("p", "race", [][2]string{{"a", "b"}})
			reg.RecordUpdateReject("p")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			reg.TimelineStats("p")
			reg.Get("p")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			reg.GetAt("p", int64(900+i))
		}
	}()
	wg.Wait()
	wantStats := statsJSON(t, reg)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2 := walRegistry(t, dir, store.Options{Fsync: store.FsyncNever, CompactEvery: 4})
	defer reg2.Close()
	if got := statsJSON(t, reg2); got != wantStats {
		t.Fatalf("recovery after concurrent ingest diverges:\n  orig:     %s\n  restored: %s", wantStats, got)
	}
	st, ok := reg2.TimelineStats("p")
	if !ok || st.Appends != observations {
		t.Fatalf("recovered %d appends, want %d", st.Appends, observations)
	}
	if got := reg2.UpdateRejects("p"); got != 100 {
		t.Fatalf("recovered %d rejects, want 100", got)
	}
}

// registryPicture renders what a registry answers for platform "p" — every
// link's state at the latest epoch and in the horizon forecast, bit for
// bit, and the retained observations without their epoch ids (which the
// process-wide allocator numbers differently per registry).
func registryPicture(t *testing.T, reg *Registry) string {
	t.Helper()
	re, ok := reg.lookup("p")
	if !ok {
		t.Fatal("platform missing")
	}
	at, _ := re.tl.LatestTime()
	fut, err := reg.GetAt("p", at+60)
	if err != nil {
		t.Fatal(err)
	}
	latest := re.tl.Latest()
	var b strings.Builder
	for li := int32(0); li < int32(latest.NumLinks()); li++ {
		fmt.Fprintf(&b, "link %d: %x %x forecast %x %x\n", li,
			math.Float64bits(latest.LinkBandwidth(li)), math.Float64bits(latest.LinkLatency(li)),
			math.Float64bits(fut.Snapshot.LinkBandwidth(li)), math.Float64bits(fut.Snapshot.LinkLatency(li)))
	}
	for _, r := range re.tl.Records() {
		fmt.Fprintf(&b, "t=%d %s:", r.Time, r.Source)
		for _, u := range r.Updates {
			fmt.Fprintf(&b, " %s %x %x", u.Link, math.Float64bits(u.Bandwidth), math.Float64bits(u.Latency))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRegistryNonFiniteUpdatesAgreeAcrossModes feeds a memory and a
// durable registry the same batches holding NaN, +Inf and -Inf bandwidths
// and latencies — values LinkUpdate documents or the epoch treats as "keep
// current". Both must accept them and reach the same link state and
// forecasts, and the durable one must recover them byte-identically after
// a restart and after a compaction.
func TestRegistryNonFiniteUpdatesAgreeAcrossModes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	other := plat.Snapshot().LinkName(0)
	batches := [][]platform.LinkUpdate{
		{{Link: testNIC, Bandwidth: 1e8, Latency: -1}, {Link: other, Bandwidth: 2e8, Latency: 1e-4}},
		{{Link: testNIC, Bandwidth: nan, Latency: 2e-4}, {Link: other, Bandwidth: inf, Latency: nan}},
		{{Link: testNIC, Bandwidth: 1.2e8, Latency: -inf}, {Link: other, Bandwidth: -inf, Latency: inf}},
		{{Link: testNIC, Bandwidth: nan, Latency: nan}},
		{{Link: testNIC, Bandwidth: 0.9e8, Latency: 3e-4}, {Link: other, Bandwidth: 1.1e8, Latency: -1}},
		{{Link: other, Bandwidth: inf, Latency: -inf}},
	}
	mem := NewRegistry()
	mem.SetTimelineDepth(3)
	if err := mem.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() (*Registry, *store.WAL) {
		w, rec, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		reg.SetTimelineDepth(3)
		if err := reg.SetStorage(w, rec); err != nil {
			t.Fatal(err)
		}
		if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
			t.Fatal(err)
		}
		return reg, w
	}
	feed := func(regs []*Registry, from, to int) {
		for i := from; i < to; i++ {
			for _, reg := range regs {
				if _, err := reg.ObserveLinkState("p", int64(1000+10*i), "nonfinite", batches[i]); err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
			}
		}
	}
	dur, _ := open()
	feed([]*Registry{mem, dur}, 0, 4)
	if !math.IsNaN(batches[1][0].Bandwidth) {
		t.Fatal("the registry rewrote the caller's batch")
	}
	want := registryPicture(t, mem)
	if got := registryPicture(t, dur); got != want {
		t.Fatalf("durable registry diverges from memory:\n  memory:  %s\n  durable: %s", want, got)
	}
	wantStats := statsJSON(t, dur)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	dur, w := open()
	if got := statsJSON(t, dur); got != wantStats {
		t.Fatalf("restart diverges:\n  orig:     %s\n  restored: %s", wantStats, got)
	}
	if got := registryPicture(t, dur); got != want {
		t.Fatalf("restart diverges from memory:\n  memory:   %s\n  restored: %s", want, got)
	}
	dur.gate.Lock()
	err = w.Compact(dur.captureState())
	dur.gate.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	feed([]*Registry{mem, dur}, 4, len(batches))
	want, wantStats = registryPicture(t, mem), statsJSON(t, dur)
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	dur, _ = open()
	defer dur.Close()
	if got := statsJSON(t, dur); got != wantStats {
		t.Fatalf("restart after compaction diverges:\n  orig:     %s\n  restored: %s", wantStats, got)
	}
	if got := registryPicture(t, dur); got != want {
		t.Fatalf("restart after compaction diverges from memory:\n  memory:   %s\n  restored: %s", want, got)
	}
}
