package pilgrim

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/nws"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
)

const testNIC = "sagittaire-1.lyon.grid5000.fr_nic"

// observe folds one bandwidth observation for the test NIC.
func observe(t *testing.T, reg *Registry, at int64, bw float64) *platform.Snapshot {
	t.Helper()
	snap, err := reg.ObserveLinkState("p", at, "test", []platform.LinkUpdate{
		{Link: testNIC, Bandwidth: bw, Latency: -1}})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRegistryGetAt checks temporal resolution end to end: past times
// answer timeline epochs, futures within the cap answer a memoized
// NWS-extrapolated epoch matching an independently fed Selector, and
// futures beyond the cap fail with ErrBeyondHorizon.
func TestRegistryGetAt(t *testing.T) {
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.SetForecastHorizon(10 * time.Minute)
	if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	base, _ := reg.Get("p")
	li := mustLinkIdx(t, base.Snapshot, testNIC)
	baseBW := base.Snapshot.LinkBandwidth(li)

	// Before any observation, every time answers the base epoch.
	e, err := reg.GetAt("p", 1<<40)
	if err != nil || e.Snapshot.Epoch() != base.Snapshot.Epoch() {
		t.Fatalf("pre-observation GetAt: epoch %d err %v, want base %d", e.Snapshot.Epoch(), err, base.Snapshot.Epoch())
	}

	series := []float64{1.0e8, 1.4e8, 0.9e8, 1.2e8}
	for i, bw := range series {
		observe(t, reg, int64(1000+100*i), bw)
	}

	for _, c := range []struct {
		at   int64
		want float64
	}{
		{999, baseBW}, {1000, series[0]}, {1150, series[1]}, {1300, series[3]}, {1250, series[2]},
	} {
		e, err := reg.GetAt("p", c.at)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Snapshot.LinkBandwidth(li); got != c.want {
			t.Errorf("GetAt(%d): bandwidth %v, want %v", c.at, got, c.want)
		}
	}

	// Future within the cap: the NWS-extrapolated epoch, identical to an
	// independently fed selector, memoized across queries and horizons.
	ref := nws.NewSelector()
	for _, bw := range series {
		ref.Update(bw)
	}
	wantBW, ok := ref.Predict()
	if !ok {
		t.Fatal("reference selector has no forecast")
	}
	f1, err := reg.GetAt("p", 1300+60)
	if err != nil {
		t.Fatal(err)
	}
	if got := f1.Snapshot.LinkBandwidth(li); math.Float64bits(got) != math.Float64bits(wantBW) {
		t.Fatalf("forecast bandwidth %v, want selector prediction %v", got, wantBW)
	}
	f2, err := reg.GetAt("p", 1300+599)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Snapshot.Epoch() != f2.Snapshot.Epoch() {
		t.Fatal("future queries against unchanged history must share one forecast epoch")
	}
	// The cap: 600s past the newest observation is out.
	if _, err := reg.GetAt("p", 1300+601); !errors.Is(err, ErrBeyondHorizon) {
		t.Fatalf("beyond-horizon err = %v, want ErrBeyondHorizon", err)
	}
	// A new observation retires the memoized forecast epoch.
	observe(t, reg, 1400, 1.1e8)
	f3, err := reg.GetAt("p", 1500)
	if err != nil {
		t.Fatal(err)
	}
	if f3.Snapshot.Epoch() == f1.Snapshot.Epoch() {
		t.Fatal("forecast epoch must be rebuilt after a new observation")
	}

	if _, err := reg.GetAt("ghost", 0); err == nil {
		t.Fatal("unknown platform must fail")
	}
}

// TestForecastCacheSharesEpochKeys checks that temporal queries stay
// memoized: at=latest resolves to the same epoch as no-at (one cache
// entry), and repeated future queries hit the memoized forecast epoch's
// entry instead of re-simulating.
func TestForecastCacheSharesEpochKeys(t *testing.T) {
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	observe(t, reg, 1000, 9e7)
	fc := NewForecastCache(16)
	reqs := []TransferRequest{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 5e8}}

	predictAt := func(at int64) []Prediction {
		e, err := reg.GetAt("p", at)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fc.PredictCtx(context.Background(), "p", e, reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	live, _ := reg.Get("p")
	if _, err := fc.PredictCtx(context.Background(), "p", live, reqs, nil); err != nil {
		t.Fatal(err)
	}
	predictAt(1000) // at = latest observation: same epoch, cache hit
	if st := fc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("at=latest must share the live entry: %+v", st)
	}
	predictAt(1500) // future: one miss materializing the forecast epoch...
	predictAt(1700) // ...then hits while history is unchanged
	predictAt(1500)
	if st := fc.Stats(); st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("future queries must memoize on the forecast epoch: %+v", st)
	}
	predictAt(999) // pre-history: the base epoch, a third distinct entry
	if st := fc.Stats(); st.Misses != 3 {
		t.Fatalf("base-epoch query: %+v", st)
	}
}

// TestHTTPTimeline exercises the HTTP surface: timestamped, attributed
// update_links; at= on predict_transfers (past, future, beyond-horizon,
// malformed); byte-identical answers for at-omitted vs at=latest; and
// timeline_stats provenance.
func TestHTTPTimeline(t *testing.T) {
	srv, client := newTestServer(t)

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	predictPath := "/pilgrim/predict_transfers/g5k_test?transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,500000000"

	// Two timestamped observations from a named source.
	bw := func(v float64) []LinkObservation { return []LinkObservation{{Link: testNIC, Bandwidth: &v}} }
	r1, err := client.UpdateLinks("g5k_test", UpdateLinksRequest{Time: 1336111200, Source: "iperf", Updates: bw(6e7)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != 1336111200 || r1.Source != "iperf" || r1.Depth != 1 || r1.Epoch == 0 {
		t.Fatalf("update answer %+v", r1)
	}
	r2, err := client.UpdateLinks("g5k_test", UpdateLinksRequest{Time: 1336111500, Source: "iperf", Updates: bw(1.2e8)})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Depth != 2 || r2.Epoch <= r1.Epoch {
		t.Fatalf("second update answer %+v", r2)
	}
	// Stale observations are refused.
	if _, err := client.UpdateLinks("g5k_test", UpdateLinksRequest{Time: 1336111400, Updates: bw(1e8)}); err == nil ||
		!strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("out-of-order update: err = %v, want HTTP 400", err)
	}

	// Temporal resolution: the degraded past is slower than the restored
	// present, and at=latest is byte-identical to at omitted.
	codeLive, bodyLive := get(predictPath)
	codePast, bodyPast := get(predictPath + "&at=1336111200")
	codeLatest, bodyLatest := get(predictPath + "&at=1336111500")
	if codeLive != 200 || codePast != 200 || codeLatest != 200 {
		t.Fatalf("predict statuses %d/%d/%d", codeLive, codePast, codeLatest)
	}
	if bodyLatest != bodyLive {
		t.Fatalf("at=latest must be byte-identical to the live path:\n%s\nvs\n%s", bodyLatest, bodyLive)
	}
	if bodyPast == bodyLive {
		t.Fatal("the degraded past epoch must answer differently")
	}
	var past, live []Prediction
	mustUnmarshal(t, bodyPast, &past)
	mustUnmarshal(t, bodyLive, &live)
	if past[0].Duration <= live[0].Duration {
		t.Fatalf("past (60 Mbyte/s) must be slower than live (120): %v vs %v", past[0].Duration, live[0].Duration)
	}
	// The datetime form of at is accepted: 2012-05-04 06:02:00 UTC is
	// 1336111320, between the two observations, governed by the first.
	if code, body := get(predictPath + "&at=2012-05-04%2006:02:00"); code != 200 || body != bodyPast {
		t.Fatalf("datetime at: status %d", code)
	}

	// Future within the default 1h horizon; beyond it a 400, not garbage.
	if code, _ := get(predictPath + "&at=1336113000"); code != 200 {
		t.Fatalf("future-within-horizon status %d", code)
	}
	if code, body := get(predictPath + "&at=1336119000"); code != 400 || !strings.Contains(body, "horizon") {
		t.Fatalf("beyond-horizon: status %d body %q", code, body)
	}
	if code, _ := get(predictPath + "&at=yesterdayish"); code != 400 {
		t.Fatalf("malformed at: status %d", code)
	}
	// select_fastest honors at= too.
	if code, _ := get("/pilgrim/select_fastest/g5k_test?hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e8&at=1336111200"); code != 200 {
		t.Fatalf("select_fastest at: status %d", code)
	}
	if code, _ := get("/pilgrim/select_fastest/g5k_test?hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e8&at=1336119000"); code != 400 {
		t.Fatal("select_fastest beyond horizon must 400")
	}

	// timeline_stats: depth, bounds, epoch ids and provenance.
	st, err := client.TimelineStats("g5k_test")
	if err != nil {
		t.Fatal(err)
	}
	if st.Platform != "g5k_test" || st.HorizonMaxSeconds != 3600 {
		t.Fatalf("stats header %+v", st)
	}
	if st.Depth != 2 || st.FirstTime != 1336111200 || st.LastTime != 1336111500 || st.Appends != 2 {
		t.Fatalf("stats accounting %+v", st.TimelineStats)
	}
	if len(st.Entries) != 2 || st.Entries[0].Source != "iperf" || st.Entries[0].Epoch != r1.Epoch ||
		st.Entries[1].Epoch != r2.Epoch || st.Entries[0].Changed != 1 {
		t.Fatalf("stats entries %+v", st.Entries)
	}
	if code, _ := get("/pilgrim/timeline_stats/ghost"); code != 404 {
		t.Fatal("unknown platform timeline_stats must 404")
	}
}

// TestForecastEpochKeepsDegenerateForecasts: a bank forecast the
// observation rule would refuse from a measurement (bandwidth <= 0, NaN or
// infinite; latency negative, NaN or infinite) keeps that link's value in
// the forecast epoch, while another link's valid forecast still applies.
func TestForecastEpochKeepsDegenerateForecasts(t *testing.T) {
	const other = "sagittaire-2.lyon.grid5000.fr_nic"
	inf := math.Inf(1)
	for _, tc := range []struct {
		name    string
		latency bool
		v       float64
	}{
		{"bandwidth 0", false, 0},
		{"bandwidth negative", false, -5},
		{"bandwidth NaN", false, math.NaN()},
		{"bandwidth +Inf", false, inf},
		{"bandwidth -Inf", false, -inf},
		{"latency negative", true, -1e-3},
		{"latency NaN", true, math.NaN()},
		{"latency +Inf", true, inf},
		{"latency -Inf", true, -inf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
				t.Fatal(err)
			}
			latest := observe(t, reg, 1, 9e7)
			li, oi := mustLinkIdx(t, latest, testNIC), mustLinkIdx(t, latest, other)
			re, _ := reg.lookup("p")
			re.fmu.Lock()
			var forecast float64
			var ok bool
			if tc.latency {
				re.bank.ObserveLatency(oi, tc.v)
				forecast, ok = re.bank.ForecastLatency(oi)
			} else {
				re.bank.ObserveBandwidth(oi, tc.v)
				forecast, ok = re.bank.ForecastBandwidth(oi)
			}
			re.fmu.Unlock()
			if !ok || (forecast > 0 && !math.IsInf(forecast, 0)) || (tc.latency && forecast == 0) {
				t.Fatalf("bank forecast %v (ok %v) is not degenerate", forecast, ok)
			}

			e, err := reg.GetAt("p", 120)
			if err != nil {
				t.Fatal(err)
			}
			fs := e.Snapshot
			if fs.LinkBandwidth(li) != 9e7 {
				t.Fatalf("valid forecast not applied: %v", fs.LinkBandwidth(li))
			}
			if math.Float64bits(fs.LinkBandwidth(oi)) != math.Float64bits(latest.LinkBandwidth(oi)) ||
				math.Float64bits(fs.LinkLatency(oi)) != math.Float64bits(latest.LinkLatency(oi)) {
				t.Fatalf("degenerate forecast %v changed %s: bw %v lat %v, latest bw %v lat %v", forecast, other,
					fs.LinkBandwidth(oi), fs.LinkLatency(oi), latest.LinkBandwidth(oi), latest.LinkLatency(oi))
			}
		})
	}
}

func mustUnmarshal(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
}

// TestConcurrentIngestAndForecast is the race test of the satellite
// checklist: observation streams appending to the timeline while readers
// resolve past and future epochs and run forecasts. Run with -race (the
// Makefile race target covers this package).
func TestConcurrentIngestAndForecast(t *testing.T) {
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.SetTimelineDepth(16)
	if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	fc := NewForecastCache(32)
	reqs := []TransferRequest{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 2e8}}

	const iters = 60
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // ingest stream: monotone timestamps through one writer
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := reg.ObserveLinkState("p", int64(1000+i), "race",
				[]platform.LinkUpdate{{Link: testNIC, Bandwidth: 9e7 + float64(float64(i)*1e5), Latency: -1}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				at := int64(990 + (i+r*7)%120) // mixes past, future, pre-history
				e, err := reg.GetAt("p", at)
				if err != nil {
					t.Errorf("GetAt(%d): %v", at, err)
					return
				}
				if i%4 == 0 {
					if _, err := fc.PredictCtx(context.Background(), "p", e, reqs, nil); err != nil {
						t.Error(err)
						return
					}
				} else {
					_ = e.Snapshot.LinkBandwidth(0)
				}
				if i%8 == 0 {
					reg.TimelineStats("p")
				}
			}
		}(r)
	}
	wg.Wait()
	if st, _ := reg.TimelineStats("p"); st.Appends != iters || st.Depth != 16 {
		t.Fatalf("post-race stats %+v", st)
	}
}
