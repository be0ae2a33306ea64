package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platgen"
	"pilgrim/internal/scenario"
	"pilgrim/internal/shard"
	"pilgrim/internal/sim"
)

// fastRetry keeps down-shard tests quick: one retry, millisecond
// backoff.
var fastRetry = pilgrim.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

// newWorkerServer builds a pilgrimd-equivalent server with the named
// platforms registered on the compact mini reference.
func newWorkerServer(t testing.TB, platforms ...string) *pilgrim.Server {
	t.Helper()
	reg := pilgrim.NewRegistry()
	for _, name := range platforms {
		plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(name, pilgrim.PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { reg.Close() })
	return pilgrim.NewServer(reg, nil)
}

// fleet is an in-process worker fleet behind a gateway.
type fleet struct {
	gw      *Gateway
	front   *httptest.Server // the gateway's listener
	workers map[string]*httptest.Server
	servers map[string]*pilgrim.Server
	m       *shard.Map
}

// newFleet starts n workers named w1..wn, each registering platforms
// and enforcing shard ownership (requests for platforms owned elsewhere
// answer 421 — so any routing mistake by the gateway fails loudly).
func newFleet(t testing.TB, n int, platforms ...string) *fleet {
	t.Helper()
	f := &fleet{
		workers: make(map[string]*httptest.Server),
		servers: make(map[string]*pilgrim.Server),
		m:       &shard.Map{},
	}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("w%d", i)
		srv := newWorkerServer(t, platforms...)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		f.workers[name] = ts
		f.servers[name] = srv
		f.m.Workers = append(f.m.Workers, shard.Worker{Name: name, URL: ts.URL})
	}
	ring, err := shard.NewRing(f.m)
	if err != nil {
		t.Fatal(err)
	}
	for name, srv := range f.servers {
		srv.SetShardIdentity(name, shard.NewTable(ring))
	}
	var parts []string
	for _, w := range f.m.Workers {
		parts = append(parts, w.Name+"="+w.URL)
	}
	gw, err := New(Options{
		Source: shard.Source{Flag: strings.Join(parts, ",")},
		Retry:  fastRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.gw = gw
	t.Cleanup(gw.Close)
	f.front = httptest.NewServer(gw)
	t.Cleanup(f.front.Close)
	return f
}

var miniTransfers = []pilgrim.TransferRequest{
	{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "graphene-1.nancy.grid5000.fr", Size: 1e8},
}

// TestProxyRoutesByOwnership drives every platform through the gateway
// with the stock pilgrim.Client. The workers enforce ownership with
// 421, so a successful prediction proves the gateway and the workers
// agree on the ring; the X-Pilgrim-Shard header pins the route to the
// expected owner.
func TestProxyRoutesByOwnership(t *testing.T) {
	plats := []string{"g5k_mini", "alpha", "beta", "gamma", "delta"}
	f := newFleet(t, 3, plats...)
	c := pilgrim.NewClient(f.front.URL)
	for _, p := range plats {
		preds, err := c.PredictTransfers(p, miniTransfers)
		if err != nil {
			t.Fatalf("predict through gateway on %s: %v", p, err)
		}
		if len(preds) != 1 || preds[0].Duration <= 0 {
			t.Fatalf("platform %s: bad predictions %+v", p, preds)
		}
		resp, err := http.Get(f.front.URL + "/pilgrim/timeline_stats/" + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := f.gw.Ring().Owner(p).Name
		if got := resp.Header.Get("X-Pilgrim-Shard"); got != want {
			t.Errorf("platform %s proxied to shard %q, ring owner is %q", p, got, want)
		}
	}
}

// TestWorkerRejectsMisdirected hits a non-owner worker directly: the
// worker must answer 421 with the owner's name and URL, not silently
// compute against its own (wrong) timeline.
func TestWorkerRejectsMisdirected(t *testing.T) {
	f := newFleet(t, 3, "g5k_mini", "alpha", "beta", "gamma")
	ring := f.gw.Ring()
	for _, p := range []string{"g5k_mini", "alpha", "beta", "gamma"} {
		owner := ring.Owner(p).Name
		for name, ts := range f.workers {
			resp, err := http.Get(ts.URL + "/pilgrim/timeline_stats/" + p)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if name == owner {
				if resp.StatusCode != http.StatusOK {
					t.Errorf("owner %s answered %d for %s: %s", name, resp.StatusCode, p, body)
				}
				continue
			}
			if resp.StatusCode != http.StatusMisdirectedRequest {
				t.Errorf("non-owner %s answered %d for %s, want 421", name, resp.StatusCode, p)
				continue
			}
			var me pilgrim.MisdirectedError
			if err := json.Unmarshal(body, &me); err != nil {
				t.Fatalf("421 body is not a MisdirectedError: %v: %s", err, body)
			}
			if me.Owner != owner || me.Platform != p || me.Shard != name {
				t.Errorf("421 envelope %+v, want owner %s platform %s shard %s", me, owner, p, name)
			}
			if me.OwnerURL != f.workers[owner].URL {
				t.Errorf("421 owner_url = %s, want %s", me.OwnerURL, f.workers[owner].URL)
			}
		}
	}
}

// TestScatterGatherDegradesPartial stops one worker and checks every
// fleet-wide read degrades instead of failing: platforms still answers
// the union with the down shard named in X-Pilgrim-Partial, cache_stats
// carries a structured per-shard error, and /pilgrim/shards reports the
// outage.
func TestScatterGatherDegradesPartial(t *testing.T) {
	f := newFleet(t, 3, "g5k_mini")
	f.workers["w2"].Close()

	resp, err := http.Get(f.front.URL + "/pilgrim/platforms")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("platforms with a down shard answered %d, want 200 (partial)", resp.StatusCode)
	}
	if len(names) != 1 || names[0] != "g5k_mini" {
		t.Fatalf("platform union = %v, want [g5k_mini]", names)
	}
	if got := resp.Header.Get("X-Pilgrim-Partial"); got != "w2" {
		t.Fatalf("X-Pilgrim-Partial = %q, want w2", got)
	}

	// cache_stats: down shard gets ok=false + error, sums come from the
	// two live shards, and the stock client still decodes the answer.
	var fleetStats FleetCacheStats
	resp, err = http.Get(f.front.URL + "/pilgrim/cache_stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleetStats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(fleetStats.Shards) != 3 {
		t.Fatalf("cache_stats envelope has %d shards, want 3", len(fleetStats.Shards))
	}
	for _, sc := range fleetStats.Shards {
		switch sc.Shard {
		case "w2":
			if sc.OK || sc.Error == "" || sc.Stats != nil {
				t.Errorf("down shard row = %+v, want ok=false with error and no stats", sc)
			}
		default:
			if !sc.OK || len(sc.Stats) == 0 {
				t.Errorf("live shard row = %+v, want ok=true with stats", sc)
			}
		}
	}
	if _, err := pilgrim.NewClient(f.front.URL).CacheStats(); err != nil {
		t.Fatalf("stock client CacheStats through degraded gateway: %v", err)
	}

	var shardsDoc struct {
		Shards []ShardStatus `json:"shards"`
	}
	resp, err = http.Get(f.front.URL + "/pilgrim/shards")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&shardsDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ok := 0
	for _, st := range shardsDoc.Shards {
		if st.OK {
			ok++
		} else if st.Shard != "w2" {
			t.Errorf("shard %s reported down: %+v", st.Shard, st)
		}
	}
	if ok != 2 {
		t.Fatalf("%d shards healthy, want 2", ok)
	}
}

// TestFleetCacheStatsSumsEveryCounter drives rendered hits on two shards,
// stops the third, and checks that every pilgrim.CacheStats field of the
// fleet answer is the sum of the live shards' own stats documents.
func TestFleetCacheStatsSumsEveryCounter(t *testing.T) {
	f := newFleet(t, 3, "g5k_mini", "alpha", "beta", "gamma", "delta")
	ring := f.gw.Ring()
	byOwner := map[string]string{} // shard -> a platform it owns
	for _, p := range []string{"g5k_mini", "alpha", "beta", "gamma", "delta"} {
		if owner := ring.Owner(p).Name; byOwner[owner] == "" && len(byOwner) < 2 {
			byOwner[owner] = p
		}
	}
	if len(byOwner) != 2 {
		t.Fatalf("platforms cover %d shards, want 2", len(byOwner))
	}
	for _, w := range f.m.Workers {
		if byOwner[w.Name] == "" {
			f.workers[w.Name].Close()
		}
	}
	// The same request line four times: a miss, a hit that remembers the
	// line, then two rendered hits.
	for _, p := range byOwner {
		url := f.front.URL + "/pilgrim/predict_transfers/" + p +
			"?transfer=sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,1e8"
		for i := 0; i < 4; i++ {
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", p, resp.StatusCode)
			}
		}
	}

	resp, err := http.Get(f.front.URL + "/pilgrim/cache_stats")
	if err != nil {
		t.Fatal(err)
	}
	var fleetStats FleetCacheStats
	if err := json.NewDecoder(resp.Body).Decode(&fleetStats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var sum pilgrim.CacheStats
	total := reflect.ValueOf(&sum).Elem()
	for _, sc := range fleetStats.Shards {
		if !sc.OK {
			continue
		}
		var cs pilgrim.CacheStats
		if err := json.Unmarshal(sc.Stats, &cs); err != nil {
			t.Fatal(err)
		}
		if cs.RenderedHits == 0 {
			t.Errorf("shard %s: no rendered hits in %s", sc.Shard, sc.Stats)
		}
		v := reflect.ValueOf(cs)
		for i := 0; i < v.NumField(); i++ {
			switch fv := total.Field(i); fv.Kind() {
			case reflect.Int:
				fv.SetInt(fv.Int() + v.Field(i).Int())
			case reflect.Uint64:
				fv.SetUint(fv.Uint() + v.Field(i).Uint())
			default:
				t.Fatalf("CacheStats.%s has kind %s: extend the sum", total.Type().Field(i).Name, fv.Kind())
			}
		}
	}
	if sum.RenderedHits == 0 {
		t.Fatal("no live shard reported rendered hits")
	}
	if fleetStats.CacheStats != sum {
		t.Errorf("fleet counters %+v, sum of live shards %+v", fleetStats.CacheStats, sum)
	}
}

// TestProxyDownShardAnswers502 routes a platform whose owner is down:
// the gateway must answer 502 with a structured error naming the shard.
func TestProxyDownShardAnswers502(t *testing.T) {
	f := newFleet(t, 3, "g5k_mini")
	owner := f.gw.Ring().Owner("g5k_mini").Name
	f.workers[owner].Close()

	resp, err := http.Get(f.front.URL + "/pilgrim/timeline_stats/g5k_mini")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var se shardError
	if err := json.NewDecoder(resp.Body).Decode(&se); err != nil {
		t.Fatal(err)
	}
	if se.Shard != owner || !strings.Contains(se.Error, owner) {
		t.Fatalf("502 envelope %+v, want shard %s", se, owner)
	}
}

// TestRetryForwardsFinalUpstreamAnswer fronts a permanently-shedding
// upstream: the gateway must retry (honoring the policy) and then
// forward the upstream's own 429 + Retry-After — not synthesize a
// gateway error.
func TestRetryForwardsFinalUpstreamAnswer(t *testing.T) {
	var hits atomic.Int64
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer up.Close()

	gw, err := New(Options{
		Source: shard.Source{Flag: "solo=" + up.URL},
		Retry:  pilgrim.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front := httptest.NewServer(gw)
	defer front.Close()

	resp, err := http.Get(front.URL + "/pilgrim/timeline_stats/any")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the upstream's 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q not forwarded", got)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("upstream saw %d attempts, want 3 (policy retries)", n)
	}
}

// TestReloadRehomes grows the fleet through the shard-map file — the
// SIGHUP path — and checks membership actually swaps, no-op reloads are
// not counted, and a broken map keeps the current ring.
func TestReloadRehomes(t *testing.T) {
	w3 := newWorkerServer(t, "g5k_mini")
	ts3 := httptest.NewServer(w3)
	defer ts3.Close()

	dir := t.TempDir()
	path := filepath.Join(dir, "shards.json")
	two := `{"shards":[{"name":"w1","url":"http://10.0.0.1:1"},{"name":"w2","url":"http://10.0.0.2:1"}]}`
	if err := os.WriteFile(path, []byte(two), 0o644); err != nil {
		t.Fatal(err)
	}
	gw, err := New(Options{Source: shard.Source{File: path}, Retry: fastRetry})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if gw.Ring().Len() != 2 {
		t.Fatalf("initial ring has %d workers, want 2", gw.Ring().Len())
	}

	if err := gw.Reload(); err != nil {
		t.Fatal(err)
	}
	if n := gw.reloads.Load(); n != 0 {
		t.Fatalf("no-op reload counted (%d)", n)
	}

	three := fmt.Sprintf(`{"shards":[{"name":"w1","url":"http://10.0.0.1:1"},{"name":"w2","url":"http://10.0.0.2:1"},{"name":"w3","url":%q}]}`, ts3.URL)
	if err := os.WriteFile(path, []byte(three), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gw.Reload(); err != nil {
		t.Fatal(err)
	}
	if gw.Ring().Len() != 3 || gw.reloads.Load() != 1 {
		t.Fatalf("after growth: ring %d workers, %d reloads; want 3 and 1", gw.Ring().Len(), gw.reloads.Load())
	}

	if err := os.WriteFile(path, []byte(`{"shards":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gw.Reload(); err == nil {
		t.Fatal("empty shard map accepted on reload")
	}
	if gw.Ring().Len() != 3 {
		t.Fatal("failed reload replaced the ring")
	}
}

// promLine matches one exposition sample: name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|NaN)$`)

// checkExposition validates Prometheus text format 0.0.4: content type,
// HELP+TYPE per family before its samples, well-formed sample lines.
// Returns the set of family names.
func checkExposition(t *testing.T, resp *http.Response) map[string]bool {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Errorf("malformed HELP line: %q", line)
				continue
			}
			families[parts[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 || (parts[3] != "counter" && parts[3] != "gauge") {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			typed[parts[2]] = true
		default:
			if !promLine.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			if !families[name] || !typed[name] {
				t.Errorf("sample %q before its HELP/TYPE headers", name)
			}
		}
	}
	return families
}

// TestGatewayMetricsContract scrapes the gateway's /metrics after some
// traffic and validates both the format and the control-plane families.
func TestGatewayMetricsContract(t *testing.T) {
	f := newFleet(t, 2, "g5k_mini")
	c := pilgrim.NewClient(f.front.URL)
	if _, err := c.PredictTransfers("g5k_mini", miniTransfers); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CacheStats(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	families := checkExposition(t, resp)
	for _, want := range []string{
		"pilgrim_gateway_shards",
		"pilgrim_gateway_reloads_total",
		"pilgrim_gateway_fanouts_total",
		"pilgrim_gateway_fan_shard_errors_total",
		"pilgrim_gateway_proxy_errors_total",
		"pilgrim_gateway_proxied_total",
	} {
		if !families[want] {
			t.Errorf("gateway /metrics missing family %s", want)
		}
	}
}

// TestEvaluateThroughGateway sends a scenario×query evaluate batch
// through the proxy — the body-carrying POST path with retry-replayable
// buffering — and checks the grid comes back intact.
func TestEvaluateThroughGateway(t *testing.T) {
	f := newFleet(t, 2, "g5k_mini")
	c := pilgrim.NewClient(f.front.URL)
	resp, err := c.Evaluate("g5k_mini", pilgrim.EvaluateRequest{
		Scenarios: []scenario.Scenario{{Name: "baseline"}},
		Queries: []pilgrim.EvalQuery{{
			Kind:      pilgrim.QueryPredictTransfers,
			Transfers: miniTransfers,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Scenarios) != 1 || len(resp.Scenarios[0].Results) != 1 {
		t.Fatalf("evaluate grid %+v, want 1x1", resp.Scenarios)
	}
	if e := resp.Scenarios[0].Results[0].Error; e != "" {
		t.Fatalf("cell error: %s", e)
	}
}
