package pilgrim

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platgen"
	"pilgrim/internal/scenario"
	"pilgrim/internal/shard"
	"pilgrim/internal/sim"
)

// promSample matches one exposition sample line: name{labels} value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|NaN)$`)

// scrapeMetrics fetches /metrics, checks its content type and validates
// the document with parseExposition.
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// parseExposition validates the text exposition format 0.0.4 line by
// line: one HELP and one TYPE per family, both before its samples, the
// type counter exactly when the name ends in _total, well-formed sample
// lines. Returns sample values keyed by the full sample name (including
// labels).
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	families := map[string]bool{}
	typed := map[string]bool{}
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[3] == "" {
				t.Errorf("malformed HELP line: %q", line)
				continue
			}
			if families[parts[2]] {
				t.Errorf("second HELP line for %s", parts[2])
			}
			families[parts[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 || (parts[3] != "counter" && parts[3] != "gauge") {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			if typed[parts[2]] {
				t.Errorf("second TYPE line for %s", parts[2])
			}
			if want := strings.HasSuffix(parts[2], "_total"); want != (parts[3] == "counter") {
				t.Errorf("%s: type %s disagrees with its name", parts[2], parts[3])
			}
			typed[parts[2]] = true
		case line == "":
			t.Error("blank line in exposition output")
		default:
			if !promSample.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				t.Errorf("unparsable value in %q: %v", line, err)
				continue
			}
			full := line[:sp]
			if _, dup := values[full]; dup {
				t.Errorf("duplicate sample %q", full)
			}
			values[full] = v
			name := full
			if i := strings.IndexByte(full, '{'); i >= 0 {
				name = full[:i]
			}
			if !families[name] || !typed[name] {
				t.Errorf("sample %q emitted before its HELP/TYPE headers", name)
			}
		}
	}
	return values
}

// TestMetricsExpositionContract drives the simulation endpoints, then
// scrapes /metrics and checks the document parses as Prometheus text
// format with every expected family, and that the counters agree with
// the traffic just sent. cache_stats must keep answering too — /metrics
// supplements it, compatibility keeps it.
func TestMetricsExpositionContract(t *testing.T) {
	srv, client := newTestServer(t)

	transfers := []TransferRequest{
		{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "graphene-1.nancy.grid5000.fr", Size: 1e8},
	}
	// Four identical polls: a miss, a canonical hit that remembers the
	// request line, then two hits answered from the exact-request index.
	for i := 0; i < 4; i++ {
		if _, err := client.PredictTransfers("g5k_test", transfers); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := client.SelectFastest("g5k_test", []Hypothesis{{Transfers: transfers}, {Transfers: transfers}}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Evaluate("g5k_test", EvaluateRequest{
		Scenarios: []scenario.Scenario{{Name: "baseline"}},
		Queries:   []EvalQuery{{Kind: QueryPredictTransfers, Transfers: transfers}},
	}); err != nil {
		t.Fatal(err)
	}

	values := scrapeMetrics(t, srv.URL)
	for _, want := range []string{
		"pilgrim_forecast_cache_hits_total",
		"pilgrim_forecast_cache_rendered_hits_total",
		"pilgrim_forecast_cache_misses_total",
		"pilgrim_forecast_cache_entries",
		"pilgrim_forecast_cache_capacity",
		"pilgrim_workers",
		"pilgrim_workers_busy",
		"pilgrim_workers_queued",
		"pilgrim_workers_max_busy",
		"pilgrim_hypotheses_total",
		"pilgrim_select_fastest_calls_total",
		"pilgrim_evaluate_calls_total",
		"pilgrim_evaluate_cells_total",
		"pilgrim_evaluate_group_runs_total",
		"pilgrim_evaluate_simulations_total",
		"pilgrim_overlay_cache_hits_total",
		"pilgrim_overlay_cache_misses_total",
		"pilgrim_overlay_cache_entries",
		"pilgrim_engine_pool_acquired_total",
		"pilgrim_engine_pool_built_total",
		"pilgrim_engine_pool_parked",
		"pilgrim_admission_enabled",
		"pilgrim_admission_inflight",
		"pilgrim_admission_waiting",
		"pilgrim_admission_admitted_total",
		"pilgrim_admission_shed_total",
		"pilgrim_admission_expired_total",
		"pilgrim_platforms",
		`pilgrim_evaluate_fork_total{tier="reused"}`,
		`pilgrim_evaluate_fork_total{tier="forked"}`,
		`pilgrim_evaluate_fork_total{tier="cold"}`,
	} {
		if _, ok := values[want]; !ok {
			t.Errorf("/metrics missing sample %s", want)
		}
	}

	// The counters must reflect the traffic above.
	if v := values["pilgrim_select_fastest_calls_total"]; v != 1 {
		t.Errorf("select_fastest calls = %v, want 1", v)
	}
	if v := values["pilgrim_hypotheses_total"]; v != 2 {
		t.Errorf("hypotheses = %v, want 2", v)
	}
	if v := values["pilgrim_evaluate_calls_total"]; v != 1 {
		t.Errorf("evaluate calls = %v, want 1", v)
	}
	if v := values["pilgrim_evaluate_cells_total"]; v != 1 {
		t.Errorf("evaluate cells = %v, want 1", v)
	}
	// The one simulation above (the rest were cache hits) acquired a
	// pooled engine and released it: it is parked, and built never exceeds
	// acquired.
	acquired, built := values["pilgrim_engine_pool_acquired_total"], values["pilgrim_engine_pool_built_total"]
	if acquired < 1 || built > acquired || values["pilgrim_engine_pool_parked"] < 1 {
		t.Errorf("engine pool: acquired=%v built=%v parked=%v", acquired, built, values["pilgrim_engine_pool_parked"])
	}
	if v := values["pilgrim_platforms"]; v != 1 {
		t.Errorf("platforms = %v, want 1", v)
	}

	// Standalone servers export no shard identity.
	if _, ok := values[`pilgrim_shard_misdirected_total`]; ok {
		t.Error("standalone server exports shard metrics")
	}

	// cache_stats stays live alongside /metrics, and the two surfaces
	// agree on the forecast-cache counters.
	cs, err := client.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if got := values["pilgrim_forecast_cache_misses_total"]; got != float64(cs.Misses) {
		t.Errorf("metrics misses %v != cache_stats misses %d", got, cs.Misses)
	}
	// Tier attribution: the last two polls were rendered hits, counted
	// inside hits on both surfaces.
	if got := values["pilgrim_forecast_cache_rendered_hits_total"]; got != 2 || cs.RenderedHits != 2 || values["pilgrim_forecast_cache_hits_total"] < got {
		t.Errorf("rendered hits: metrics %v, cache_stats %d, want 2 (hits %v)", got, cs.RenderedHits, values["pilgrim_forecast_cache_hits_total"])
	}
	// ... and on the engine pool: cache_stats carries the same counters
	// under "engine_pool" (process-wide, so only monotonicity is exact).
	resp, err := http.Get(srv.URL + "/pilgrim/cache_stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var full struct {
		EnginePool *sim.PoolCounters `json:"engine_pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&full); err != nil {
		t.Fatal(err)
	}
	if ep := full.EnginePool; ep == nil {
		t.Error("cache_stats has no engine_pool object")
	} else if float64(ep.Acquired) < acquired || float64(ep.Built) < built || ep.Acquired != ep.Reused+ep.Built {
		t.Errorf("cache_stats engine_pool %+v disagrees with /metrics acquired=%v built=%v", *ep, acquired, built)
	}
}

// TestMetricsShardIdentity checks the shard families appear once the
// server runs as a fleet member, and that misdirected rejections are
// counted.
func TestMetricsShardIdentity(t *testing.T) {
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("g5k_test", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	server := NewServer(reg, nil)
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL)
	client.Retry = RetryPolicy{MaxAttempts: 1}

	m := &shard.Map{Workers: []shard.Worker{
		{Name: "self", URL: srv.URL},
		{Name: "other", URL: "http://10.255.0.1:1"},
	}}
	ring, err := shard.NewRing(m)
	if err != nil {
		t.Fatal(err)
	}
	// Find a platform name the ring assigns to the other worker, then
	// install the identity and hit that platform: the server must 421 it
	// and count the rejection.
	foreign := ""
	for i := 0; i < 1000; i++ {
		name := "plat-" + strconv.Itoa(i)
		if ring.Owner(name).Name == "other" {
			foreign = name
			break
		}
	}
	if foreign == "" {
		t.Fatal("no foreign-owned name found in 1000 candidates")
	}
	server.SetShardIdentity("self", shard.NewTable(ring))

	if ring.Owner("g5k_test").Name == "self" {
		if _, err := client.TimelineStats("g5k_test"); err != nil {
			t.Fatalf("owned platform rejected: %v", err)
		}
	}
	_, err = client.TimelineStats(foreign)
	if err == nil || !strings.Contains(err.Error(), "421") {
		t.Fatalf("foreign platform err = %v, want HTTP 421", err)
	}

	values := scrapeMetrics(t, srv.URL)
	if v := values[`pilgrim_shard_info{shard="self",workers="2"}`]; v != 1 {
		t.Errorf("pilgrim_shard_info = %v, want 1", v)
	}
	if v := values["pilgrim_shard_misdirected_total"]; v < 1 {
		t.Errorf("misdirected counter = %v, want >= 1", v)
	}
}

// TestStatsRenderingsAgree gives every field of the cache_stats document
// a distinct value, renders it as JSON and as exposition text, and checks
// that each metric-tagged field's sample equals the JSON value at the
// same field, that no JSON-only field leaks into the exposition, and that
// the text is well-formed.
func TestStatsRenderingsAgree(t *testing.T) {
	type field struct {
		path   []string
		metric string
		value  float64
	}
	var fields []field
	next := 2.0
	var fill func(v reflect.Value, path []string)
	fill = func(v reflect.Value, path []string) {
		if v.Kind() == reflect.Pointer {
			v.Set(reflect.New(v.Type().Elem()))
			v = v.Elem()
		}
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			p := path
			if !f.Anonymous {
				name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
				p = append(path[:len(path):len(path)], name)
			}
			x := next
			switch fv.Kind() {
			case reflect.Struct, reflect.Pointer:
				fill(fv, p)
				continue
			case reflect.String:
				continue
			case reflect.Bool:
				fv.SetBool(true)
				x = 1
			case reflect.Int, reflect.Int64:
				fv.SetInt(int64(x))
			case reflect.Uint64:
				fv.SetUint(uint64(x))
			default:
				t.Fatalf("field %s: unhandled kind %s", f.Name, fv.Kind())
			}
			next++
			fields = append(fields, field{p, f.Tag.Get("metric"), x})
		}
	}
	var doc serverStats
	fill(reflect.ValueOf(&doc).Elem(), nil)

	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var e Exposition
	e.addFields(reflect.ValueOf(doc))
	samples := parseExposition(t, e.b.String())

	exported := map[float64]string{}
	for name, v := range samples {
		exported[v] = name
	}
	tagged := 0
	for _, f := range fields {
		var node any = tree
		for _, k := range f.path {
			node = node.(map[string]any)[k]
		}
		jv, ok := node.(float64)
		if b, isBool := node.(bool); isBool && b {
			jv, ok = 1, true
		}
		if !ok || jv != f.value {
			t.Fatalf("%s: JSON holds %v, want %v", strings.Join(f.path, "."), node, f.value)
		}
		if f.metric == "-" {
			if name, leaked := exported[jv]; leaked {
				t.Errorf("JSON-only field %s appears in the exposition as %s", strings.Join(f.path, "."), name)
			}
			continue
		}
		tagged++
		if got, ok := samples[f.metric]; !ok || got != jv {
			t.Errorf("%s: exposition %s = %v (present %v), JSON %v", strings.Join(f.path, "."), f.metric, got, ok, jv)
		}
	}
	if len(samples) != tagged {
		t.Errorf("exposition has %d samples, the document %d metric-tagged fields", len(samples), tagged)
	}

	// Without a WAL-backed registry the store families are absent.
	doc.Storage = nil
	var bare Exposition
	bare.addFields(reflect.ValueOf(doc))
	if text := bare.b.String(); strings.Contains(text, "pilgrim_store_") {
		t.Errorf("nil storage still exported store families:\n%s", text)
	}
}

// TestExpositionRefusesStaticBugs pins the panics that keep the listing
// honest: a numeric stats field without a metric tag, and a family that
// comes back after another one was started.
func TestExpositionRefusesStaticBugs(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("untagged field", func() {
		var e Exposition
		e.addFields(reflect.ValueOf(struct {
			Tagged   int `metric:"pilgrim_a" help:"A."`
			Untagged int
		}{}))
	})
	mustPanic("family reopened", func() {
		var e Exposition
		e.Add("pilgrim_a_total", "A.", 1)
		e.Add("pilgrim_b", "B.", 1)
		e.Add("pilgrim_a_total", "A.", 2)
	})
}
