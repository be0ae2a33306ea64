package pilgrim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
)

// TestRegistryUpdateLinkState checks the measure→update→forecast loop at
// the registry level: a bandwidth update changes subsequent predictions,
// entries pin their epoch, and a round trip restores the original answer
// bit for bit.
func TestRegistryUpdateLinkState(t *testing.T) {
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	reqs := []TransferRequest{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 5e8}}

	e0, _ := reg.Get("p")
	base, err := PredictTransfers(e0, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}

	link := "sagittaire-1.lyon.grid5000.fr_nic"
	origBW := e0.Snapshot.LinkBandwidth(mustLinkIdx(t, e0.Snapshot, link))
	if _, err := reg.ObserveLinkState("p", 1, "test", []platform.LinkUpdate{{Link: link, Bandwidth: origBW / 10, Latency: -1}}); err != nil {
		t.Fatal(err)
	}

	e1, _ := reg.Get("p")
	if e1.Snapshot.Epoch() == e0.Snapshot.Epoch() {
		t.Fatal("update did not publish a new epoch")
	}
	degraded, err := PredictTransfers(e1, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if degraded[0].Duration <= base[0].Duration {
		t.Fatalf("tenfold slower access link must slow the transfer: %v vs %v",
			degraded[0].Duration, base[0].Duration)
	}
	// The entry loaded before the update still answers against its epoch.
	again, err := PredictTransfers(e0, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Duration != base[0].Duration {
		t.Fatal("pinned entry must keep answering against its own epoch")
	}

	// Round trip back to the measured original value.
	if _, err := reg.ObserveLinkState("p", 2, "test", []platform.LinkUpdate{{Link: link, Bandwidth: origBW, Latency: -1}}); err != nil {
		t.Fatal(err)
	}
	e2, _ := reg.Get("p")
	restored, err := PredictTransfers(e2, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored[0].Duration != base[0].Duration {
		t.Fatalf("round-trip prediction %v != original %v", restored[0].Duration, base[0].Duration)
	}

	if _, err := reg.ObserveLinkState("ghost", 3, "test", nil); err == nil {
		t.Fatal("unknown platform must fail")
	}
	if _, err := reg.ObserveLinkState("p", 4, "test", []platform.LinkUpdate{{Link: "nope", Bandwidth: 1}}); err == nil {
		t.Fatal("unknown link must fail")
	}
}

func mustLinkIdx(t *testing.T, s *platform.Snapshot, name string) int32 {
	t.Helper()
	i, ok := s.LinkIndex(name)
	if !ok {
		t.Fatalf("unknown link %q", name)
	}
	return i
}

// TestForecastCacheEpochKeying checks that cached answers cannot outlive
// the platform state that produced them: the same workload before and
// after a link update maps to different keys (a miss, then fresh
// simulation), and an identical epoch round trip starts a third entry —
// never serving stale bytes.
func TestForecastCacheEpochKeying(t *testing.T) {
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("p", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	fc := NewForecastCache(16)
	reqs := []TransferRequest{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 5e8}}

	predict := func() []Prediction {
		e, _ := reg.Get("p")
		out, err := fc.PredictCtx(context.Background(), "p", e, reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := predict()
	predict() // hit
	if st := fc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("warmup: %+v", st)
	}

	link := "sagittaire-1.lyon.grid5000.fr_nic"
	e, _ := reg.Get("p")
	origBW := e.Snapshot.LinkBandwidth(mustLinkIdx(t, e.Snapshot, link))
	if _, err := reg.ObserveLinkState("p", 1, "test", []platform.LinkUpdate{{Link: link, Bandwidth: origBW / 10, Latency: -1}}); err != nil {
		t.Fatal(err)
	}
	degraded := predict()
	if st := fc.Stats(); st.Misses != 2 {
		t.Fatalf("new epoch must miss: %+v", st)
	}
	if degraded[0].Duration == base[0].Duration {
		t.Fatal("stale answer served after link update")
	}
	if _, err := reg.ObserveLinkState("p", 2, "test", []platform.LinkUpdate{{Link: link, Bandwidth: origBW, Latency: -1}}); err != nil {
		t.Fatal(err)
	}
	restored := predict()
	if st := fc.Stats(); st.Misses != 3 {
		t.Fatalf("restored epoch is a distinct picture and must miss: %+v", st)
	}
	if restored[0].Duration != base[0].Duration {
		t.Fatal("restored epoch must reproduce the original prediction")
	}
}

// TestHTTPUpdateLinks exercises the endpoint end to end: degrade a link
// over HTTP, observe the slower forecast, restore it, observe the
// original forecast again.
func TestHTTPUpdateLinks(t *testing.T) {
	srv, _ := newTestServer(t)

	predictURL := srv.URL + "/pilgrim/predict_transfers/g5k_test?transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,500000000"
	predict := func() float64 {
		resp, err := http.Get(predictURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
		var preds []Prediction
		if err := jsonDecode(resp, &preds); err != nil {
			t.Fatal(err)
		}
		return preds[0].Duration
	}
	update := func(body string) (int, map[string]any) {
		resp, err := http.Post(srv.URL+"/pilgrim/update_links/g5k_test", "application/json",
			bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = jsonDecode(resp, &out)
		return resp.StatusCode, out
	}

	base := predict()
	code, out := update(`[{"link": "sagittaire-1.lyon.grid5000.fr_nic", "bandwidth": 12500000}]`)
	if code != http.StatusOK {
		t.Fatalf("update status %d: %v", code, out)
	}
	if out["links_updated"].(float64) != 1 || out["epoch"].(float64) <= 0 {
		t.Fatalf("unexpected answer %v", out)
	}
	if d := predict(); d <= base {
		t.Fatalf("degraded link must slow the forecast: %v vs %v", d, base)
	}
	// Restore the nominal NIC rate (read from an identically generated
	// platform) and check the original forecast comes back exactly.
	ref, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	nominal := ref.Link("sagittaire-1.lyon.grid5000.fr_nic").Bandwidth
	code, _ = update(fmt.Sprintf(`[{"link": "sagittaire-1.lyon.grid5000.fr_nic", "bandwidth": %v}]`, nominal))
	if code != http.StatusOK {
		t.Fatalf("restore status %d", code)
	}
	if d := predict(); d != base {
		t.Fatalf("restored forecast %v != original %v", d, base)
	}

	// Error paths.
	for _, bad := range []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`[]`, http.StatusBadRequest},
		{`[{"link": ""}]`, http.StatusBadRequest},
		{`[{"link": "x"}]`, http.StatusBadRequest},
		{`[{"link": "sagittaire-1.lyon.grid5000.fr_nic", "bandwidth": -4}]`, http.StatusBadRequest},
		{`[{"link": "sagittaire-1.lyon.grid5000.fr_nic", "latency": -1}]`, http.StatusBadRequest},
		{`[{"link": "ghost", "bandwidth": 1e6}]`, http.StatusBadRequest},
	} {
		if code, _ := update(bad.body); code != bad.want {
			t.Errorf("body %q: status %d, want %d", bad.body, code, bad.want)
		}
	}
	if resp, err := http.Post(srv.URL+"/pilgrim/update_links/ghost", "application/json",
		bytes.NewBufferString(`[{"link":"x","bandwidth":1}]`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown platform: status %d", resp.StatusCode)
		}
	}
}

// TestUpdateLinksStructuredReject pins the structured 400: a batch naming
// unknown links — legacy array body included — answers a JSON document
// listing every offender, and the rejection shows up in timeline_stats as
// rejected_updates.
func TestUpdateLinksStructuredReject(t *testing.T) {
	srv, client := newTestServer(t)

	post := func(body string) (int, UpdateLinksError) {
		resp, err := http.Post(srv.URL+"/pilgrim/update_links/g5k_test", "application/json",
			bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out UpdateLinksError
		_ = jsonDecode(resp, &out)
		return resp.StatusCode, out
	}

	// Legacy array body with two unknown links among a known one.
	code, out := post(`[
		{"link": "ghost-1", "bandwidth": 1e6},
		{"link": "sagittaire-1.lyon.grid5000.fr_nic", "bandwidth": 1e6},
		{"link": "ghost-2", "latency": 0.001}]`)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	if out.Platform != "g5k_test" || len(out.UnknownLinks) != 2 ||
		out.UnknownLinks[0] != "ghost-1" || out.UnknownLinks[1] != "ghost-2" {
		t.Fatalf("structured error = %+v", out)
	}
	if !strings.Contains(out.Error, "2 of 3") {
		t.Errorf("error text = %q", out.Error)
	}

	// Timestamped body form rejects identically.
	if code, out = post(`{"source": "iperf", "updates": [{"link": "ghost", "bandwidth": 5}]}`); code != http.StatusBadRequest || len(out.UnknownLinks) != 1 {
		t.Fatalf("timestamped reject: %d %+v", code, out)
	}

	// The rejected batch must not have touched the timeline, and the
	// reject count is surfaced.
	st, err := client.TimelineStats("g5k_test")
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth != 0 {
		t.Errorf("rejected batches reached the timeline: depth %d", st.Depth)
	}
	if st.RejectedUpdates != 2 {
		t.Errorf("rejected_updates = %d, want 2", st.RejectedUpdates)
	}
}

// TestUpdateLinksTimeForms pins how the timestamped body's time decodes:
// a number or a JSON string (escapes unquoted as encoding/json does) in
// either accepted spelling, null as absent (the arrival time), and
// anything else a 400 naming the value. Rows run in time order because
// an observation may not precede the newest one.
func TestUpdateLinksTimeForms(t *testing.T) {
	srv, _ := newTestServer(t)
	start := time.Now().Unix()
	for _, c := range []struct {
		time string
		want int64  // recorded time; 0 = the arrival time
		err  string // 400 text, for a rejected value
	}{
		{time: `1336111200`, want: 1336111200},
		{time: `"1336111201"`, want: 1336111201},
		{time: `"\u0031336111202"`, want: 1336111202},
		{time: `"2012-05-04 08:00:00"`, want: 1336118400},
		{time: `"2012-05-04\u002008:00:01"`, want: 1336118401},
		{time: `"yesterday"`, err: `time: timestamp "yesterday" is neither Unix seconds nor YYYY-MM-DD HH:MM:SS`},
		{time: `true`, err: `time: timestamp "true" is neither Unix seconds nor YYYY-MM-DD HH:MM:SS`},
		{time: `""`, err: `time: missing timestamp`},
		{time: `null`},
	} {
		body := `{"time": ` + c.time + `, "updates": [{"link": "` + testNIC + `", "bandwidth": 9e7}]}`
		resp, err := http.Post(srv.URL+"/pilgrim/update_links/g5k_test", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if c.err != "" {
			if got := strings.TrimSpace(string(raw)); resp.StatusCode != http.StatusBadRequest || got != c.err {
				t.Errorf("time %s: %d %q, want 400 %q", c.time, resp.StatusCode, got, c.err)
			}
			continue
		}
		var out UpdateLinksResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &out) != nil {
			t.Errorf("time %s: %d %s", c.time, resp.StatusCode, raw)
			continue
		}
		if c.want == 0 && out.Time < start || c.want != 0 && out.Time != c.want {
			t.Errorf("time %s: recorded %d, want %d (0: arrival, at least %d)", c.time, out.Time, c.want, start)
		}
	}
}
