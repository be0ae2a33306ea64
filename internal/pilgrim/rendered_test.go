package pilgrim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pilgrim/internal/platform"
	"pilgrim/internal/shard"
)

// These tests pin the exact-request index (cache.go, renderKey): a
// rendered hit must be indistinguishable — bytes, status, cache
// accounting, LRU order — from the canonical hit it short-circuits.

// renderedServer is a server over its own registry of the shared Mini
// platform, driven in process.
func renderedServer(t testing.TB, entry PlatformEntry) (*Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		t.Fatal(err)
	}
	return NewServer(reg, nil), reg
}

// do pushes one request through the full handler stack. The target is
// parsed as a server parses a request line, so r.URL.RawQuery is what a
// socket would deliver.
func do(s *Server, method, target, body string) (int, string) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w.Code, w.Body.String()
}

func lyon(i int) string                 { return "sagittaire-" + strconv.Itoa(i) + ".lyon.grid5000.fr" }
func nancy(i int) string                { return "graphene-" + strconv.Itoa(i) + ".nancy.grid5000.fr" }
func predictTarget(query string) string { return "/pilgrim/predict_transfers/g5k_test?" + query }

// transferQuery renders transfers (and background pairs) as a query
// string in the order given.
func transferQuery(transfers []TransferRequest, bg [][2]string) string {
	var parts []string
	for _, tr := range transfers {
		parts = append(parts, "transfer="+tr.Src+","+tr.Dst+","+strconv.FormatFloat(tr.Size, 'f', -1, 64))
	}
	for _, p := range bg {
		parts = append(parts, "bg="+p[0]+","+p[1])
	}
	return strings.Join(parts, "&")
}

var epochField = regexp.MustCompile(`"epoch": \d+`)

// TestRenderedIndexMatchesOracles is the property test: seeded scripts of
// repeated, permuted, bg=, at= (past, future, beyond the horizon),
// deadline= and malformed GETs interleaved with update_links run against
// a default server, a server with the forecast cache disabled and an
// encoding/json oracle (SetLegacyJSON: it neither consults nor fills the
// index). Status and body must agree at every step, and the default
// server's hit/miss/size accounting must equal a twin ForecastCache fed
// the same requests through PredictCtx — a rendered hit is an LRU hit on
// the same entry, not a cache of its own.
func TestRenderedIndexMatchesOracles(t *testing.T) {
	entry := miniEntry(t)
	scripts := 240
	if testing.Short() {
		scripts = 40
	}
	multisets := [][]TransferRequest{
		{{lyon(1), lyon(2), 1e8}, {lyon(3), nancy(1), 5e8}, {nancy(2), lyon(4), 2e8}},
		{{lyon(1), lyon(2), 1e8}, {lyon(1), lyon(2), 1e8}, {nancy(5), nancy(6), 7e8}, {lyon(5), nancy(7), 3e8}},
		{{nancy(1), nancy(2), 4e8}, {lyon(6), lyon(1), 9e7}},
		{{lyon(2), nancy(3), 6e8}},
		{{lyon(1), "nosuch.lyon.grid5000.fr", 1e8}, {lyon(2), lyon(3), 1e8}}, // reaches the cache, fails to simulate
	}
	var renderedTotal, requests uint64
	for seed := 0; seed < scripts; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		def, reg := renderedServer(t, entry)
		nocache, _ := renderedServer(t, entry)
		nocache.SetForecastCache(0)
		oracle, _ := renderedServer(t, entry)
		oracle.SetLegacyJSON(true)
		capacity := DefaultForecastCacheSize
		if seed%2 == 1 { // a tiny LRU: eviction interleaves with renderings
			capacity = 2
			def.SetForecastCache(capacity)
		}
		twin := NewForecastCache(capacity)
		servers := []*Server{def, nocache, oracle}

		now := int64(1336111200)
		observed := []int64{}
		for step := 0; step < 60; step++ {
			var method, target, body string
			var feed func() // replays the step on the twin cache
			if rng.Intn(100) < 8 {
				now += 60
				observed = append(observed, now)
				method, target = "POST", "/pilgrim/update_links/g5k_test"
				body = fmt.Sprintf(`{"time": %d, "updates": [{"link": "%s_nic", "bandwidth": %d}]}`,
					now, lyon(1+rng.Intn(3)), 5e7+rng.Intn(5)*1e7)
			} else {
				which := 0 // the poller's habitual question, half the time
				if rng.Intn(2) == 0 {
					which = rng.Intn(len(multisets))
				}
				transfers := append([]TransferRequest(nil), multisets[which]...)
				if rng.Intn(4) == 0 { // else: the habitual order, the exact repeat
					rng.Shuffle(len(transfers), func(i, j int) { transfers[i], transfers[j] = transfers[j], transfers[i] })
				}
				var bg [][2]string
				if rng.Intn(5) == 0 {
					bg = [][2]string{{nancy(3), nancy(4)}, {lyon(5), lyon(6)}}[:1+rng.Intn(2)]
				}
				query := transferQuery(transfers, bg)
				at := int64(-1)
				if rng.Intn(100) < 15 {
					switch k := rng.Intn(4); {
					case k == 0:
						at = 1336111200 - 100 // before any history
					case k == 1 && len(observed) > 0:
						at = observed[rng.Intn(len(observed))] + 1 // past
					case k == 2:
						at = now + 120 // future, inside the horizon
					default:
						at = now + 3*3600 // beyond the horizon once history exists
					}
					query += "&at=" + strconv.FormatInt(at, 10)
				}
				if rng.Intn(10) == 0 {
					query += "&deadline=30"
				}
				malformed := false
				switch rng.Intn(12) {
				case 0:
					query, malformed = query+"%zz", true
				case 1:
					query, malformed = query+";x=1", true
				}
				method, target = "GET", predictTarget(query)
				if !malformed {
					feed = func() {
						pinned, ok := reg.Get("g5k_test")
						if at >= 0 {
							var err error
							pinned, err = reg.GetAt("g5k_test", at)
							ok = err == nil
						}
						if ok {
							_, _ = twin.PredictCtx(context.Background(), "g5k_test", pinned, transfers, bg)
						}
					}
				}
			}
			var codes [3]int
			var bodies [3]string
			for i, s := range servers {
				codes[i], bodies[i] = do(s, method, target, body)
				bodies[i] = epochField.ReplaceAllString(bodies[i], `"epoch": N`)
			}
			if feed != nil {
				feed()
			}
			requests++
			for i := 1; i < 3; i++ {
				if codes[i] != codes[0] || bodies[i] != bodies[0] {
					t.Fatalf("seed %d step %d: %s %s\ndefault   %d %q\nserver %d  %d %q",
						seed, step, method, target, codes[0], bodies[0], i, codes[i], bodies[i])
				}
			}
			got, want := def.cache.Load().Stats(), twin.Stats()
			if got.Hits != want.Hits || got.Misses != want.Misses || got.Size != want.Size {
				t.Fatalf("seed %d step %d: %s %s\nserver cache %+v\ntwin cache   %+v", seed, step, method, target, got, want)
			}
		}
		st := def.cache.Load().Stats()
		if st.RenderedHits > st.Hits {
			t.Fatalf("seed %d: rendered_hits %d exceed hits %d", seed, st.RenderedHits, st.Hits)
		}
		renderedTotal += st.RenderedHits
		for _, s := range []*Server{nocache, oracle} {
			fc := s.cache.Load()
			if n := fc.Stats().RenderedHits; n != 0 || len(fc.rendered) != 0 {
				t.Fatalf("seed %d: a server that must not use the index has %d rendered hits, %d renderings", seed, n, len(fc.rendered))
			}
		}
	}
	// Coverage guard: the scripts must actually take the shortcut.
	t.Logf("%d of %d requests were rendered hits", renderedTotal, requests)
	if renderedTotal < requests/20 {
		t.Fatalf("only %d of %d requests were rendered hits — the scripts no longer exercise the index", renderedTotal, requests)
	}
}

// TestRenderedAttachRule checks which requests attach a rendering and
// which take the shortcut: at= and deadline= requests do neither, however
// often they repeat; a plain request line attaches on the first hit of its
// answer (never on the miss) and is served from the index after that.
func TestRenderedAttachRule(t *testing.T) {
	s, reg := renderedServer(t, miniEntry(t))
	if _, err := reg.ObserveLinkState("g5k_test", 1336111200, "test", []platform.LinkUpdate{
		{Link: lyon(1) + "_nic", Bandwidth: 9e7, Latency: -1}}); err != nil {
		t.Fatal(err)
	}
	query := transferQuery([]TransferRequest{{lyon(1), lyon(2), 1e8}, {lyon(3), nancy(1), 5e8}}, nil)
	stats := func() CacheStats { return s.cache.Load().Stats() }
	var want string
	for _, suffix := range []string{"&deadline=30", "&at=1336111300", "&at=1336111100", "&deadline=30&at=1336111300", "&at=", "&deadline="} {
		for i := 0; i < 3; i++ {
			code, body := do(s, "GET", predictTarget(query+suffix), "")
			if code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", suffix, code, body)
			}
			if suffix == "&deadline=30" {
				want = body // head epoch, same question as the plain line
			}
		}
	}
	if st := stats(); st.RenderedHits != 0 || len(s.cache.Load().rendered) != 0 {
		t.Fatalf("at=/deadline= requests used the index: %+v, %d renderings", st, len(s.cache.Load().rendered))
	}
	before := stats()
	for i := 0; i < 3; i++ {
		code, body := do(s, "GET", predictTarget(query), "")
		if code != http.StatusOK || body != want {
			t.Fatalf("poll %d: status %d body %q, want %q", i, code, body, want)
		}
	}
	after := stats()
	if after.RenderedHits != 2 || after.Hits != before.Hits+3 || after.Misses != before.Misses {
		t.Fatalf("three polls of a cached answer: %+v -> %+v, want +3 hits of which 2 rendered", before, after)
	}
	// A new epoch retires the rendering with the answer: the next poll
	// misses and attaches nothing, the second hits canonically and
	// attaches, the third is a rendered hit again.
	if _, err := reg.ObserveLinkState("g5k_test", 1336111400, "test", []platform.LinkUpdate{
		{Link: lyon(1) + "_nic", Bandwidth: 5e7, Latency: -1}}); err != nil {
		t.Fatal(err)
	}
	_, fresh := do(s, "GET", predictTarget(query), "")
	if n := len(s.cache.Load().rendered); n != 1 {
		t.Fatalf("a miss attached a rendering: %d renderings, want only the old epoch's", n)
	}
	_, second := do(s, "GET", predictTarget(query), "")
	if st := stats(); st.RenderedHits != after.RenderedHits {
		t.Fatalf("the first hit of a new answer was a rendered hit: %+v", st)
	}
	_, third := do(s, "GET", predictTarget(query), "")
	if fresh == want || second != fresh || third != fresh {
		t.Fatalf("after update_links: answers %q, %q, %q, stale %q", fresh, second, third, want)
	}
	if st := stats(); st.Misses != after.Misses+1 || st.Hits != after.Hits+2 || st.RenderedHits != after.RenderedHits+1 {
		t.Fatalf("after update_links: %+v, want one more miss, two more hits, one more rendered hit than %+v", st, after)
	}
}

// TestRenderedErrorPrecedence checks that a rendering changes no error
// answer: with one present, 429 (shed), 504 (deadline expired in the
// queue), 421 (misdirected) and 404 keep their statuses and their order
// (admission before ownership), and none of them touches the cache.
func TestRenderedErrorPrecedence(t *testing.T) {
	s, _ := renderedServer(t, miniEntry(t))
	query := transferQuery([]TransferRequest{{lyon(1), lyon(2), 1e8}}, nil)
	for i := 0; i < 3; i++ { // miss, canonical hit (attaches), rendered hit
		if code, body := do(s, "GET", predictTarget(query), ""); code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
	}
	base := s.cache.Load().Stats()
	if base.RenderedHits != 1 {
		t.Fatalf("no rendering to test against: %+v", base)
	}
	expect := func(what, target string, want int) {
		t.Helper()
		if code, body := do(s, "GET", target, ""); code != want {
			t.Errorf("%s: status %d (%s), want %d", what, code, strings.TrimSpace(body), want)
		}
	}
	expect("unknown platform", "/pilgrim/predict_transfers/nosuch?"+query, http.StatusNotFound)

	// Misdirected: make the other worker own g5k_test.
	ring, err := shard.NewRing(&shard.Map{Workers: []shard.Worker{
		{Name: "a", URL: "http://10.255.0.1:1"}, {Name: "b", URL: "http://10.255.0.2:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	self := "a"
	if ring.Owner("g5k_test").Name == "a" {
		self = "b"
	}
	s.SetShardIdentity(self, shard.NewTable(ring))
	expect("misdirected", predictTarget(query), http.StatusMisdirectedRequest)

	// Saturated: admission answers before ownership is looked at.
	s.SetAdmission(1, 1, time.Second)
	release, err := s.admission.Load().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	expect("deadline expired while queued", predictTarget(query+"&deadline=0.02"), http.StatusGatewayTimeout)
	s.SetAdmission(1, 0, time.Second)
	release()
	release, err = s.admission.Load().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	expect("shed, misdirected", predictTarget(query), http.StatusTooManyRequests)
	s.SetShardIdentity("", nil)
	expect("shed", predictTarget(query), http.StatusTooManyRequests)
	release()
	if st := s.cache.Load().Stats(); st != base {
		t.Fatalf("error answers touched the cache: %+v -> %+v", base, st)
	}
	expect("poll after release", predictTarget(query), http.StatusOK)
	if st := s.cache.Load().Stats(); st.RenderedHits != base.RenderedHits+1 {
		t.Fatalf("the rendering did not survive the error answers: %+v", st)
	}
}

// TestRenderedLegacyAndDisabled checks the two off states: SetLegacyJSON
// neither consults nor fills the index (even with renderings present),
// and SetForecastCache(0) disables it with the cache.
func TestRenderedLegacyAndDisabled(t *testing.T) {
	s, _ := renderedServer(t, miniEntry(t))
	target := predictTarget(transferQuery([]TransferRequest{{lyon(1), lyon(2), 1e8}}, nil))
	other := predictTarget(transferQuery([]TransferRequest{{lyon(2), lyon(3), 1e8}}, nil))
	_, want := do(s, "GET", target, "")
	do(s, "GET", target, "") // attaches
	do(s, "GET", target, "") // rendered hit
	s.SetLegacyJSON(true)
	for i := 0; i < 3; i++ {
		if _, body := do(s, "GET", target, ""); body != want {
			t.Fatalf("legacy body %q, want %q", body, want)
		}
		do(s, "GET", other, "")
	}
	fc := s.cache.Load()
	if st := fc.Stats(); st.RenderedHits != 1 || st.Hits != 7 || len(fc.rendered) != 1 {
		t.Fatalf("legacy mode used the index: %+v, %d renderings", st, len(fc.rendered))
	}
	s.SetLegacyJSON(false)
	s.SetForecastCache(0)
	for i := 0; i < 3; i++ {
		if _, body := do(s, "GET", target, ""); body != want {
			t.Fatalf("uncached body %q, want %q", body, want)
		}
	}
	fc = s.cache.Load()
	if st := fc.Stats(); st.RenderedHits != 0 || st.Hits != 0 || st.Misses != 3 || len(fc.rendered) != 0 {
		t.Fatalf("disabled cache kept an index: %+v, %d renderings", st, len(fc.rendered))
	}
}

// renderingBytes sums what the index retains: request lines and bodies.
func renderingBytes(fc *ForecastCache) (n int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for k, r := range fc.rendered {
		n += len(k.rawQuery) + len(r.body)
	}
	return n
}

// TestRenderedEvictionAndBound checks the index's lifetime rules: a
// rendering is dropped with the LRU entry it belongs to, and one entry
// remembers at most maxRenderingsPerEntry request lines however many
// orderings of its multiset are asked — the retained bytes do not grow.
func TestRenderedEvictionAndBound(t *testing.T) {
	s, _ := renderedServer(t, miniEntry(t))
	s.SetForecastCache(2)
	fc := s.cache.Load()
	single := func(i int) string {
		return predictTarget(transferQuery([]TransferRequest{{lyon(i), lyon(i + 1), 1e8}}, nil))
	}
	for _, i := range []int{1, 1, 2, 2} {
		do(s, "GET", single(i), "")
	}
	if len(fc.rendered) != 2 {
		t.Fatalf("%d renderings after two answers asked twice, want 2", len(fc.rendered))
	}
	do(s, "GET", single(3), "") // evicts the answer to single(1), and its rendering
	if len(fc.rendered) != 1 {
		t.Fatalf("%d renderings after evicting one of two, want 1", len(fc.rendered))
	}
	before := fc.Stats()
	do(s, "GET", single(1), "")
	if st := fc.Stats(); st.Misses != before.Misses+1 || st.RenderedHits != 0 {
		t.Fatalf("an evicted answer was served from its rendering: %+v -> %+v", before, st)
	}

	// 30 rotations of one 30-transfer multiset, three rounds.
	var transfers []TransferRequest
	for i := 0; i < 30; i++ {
		transfers = append(transfers, TransferRequest{lyon(1 + i%6), nancy(1 + i%8), float64(1e8 + i)})
	}
	var wantPreds []Prediction // rotation 0's answer
	var retained int
	for round := 0; round < 3; round++ {
		for k := range transfers {
			rotated := append(append([]TransferRequest(nil), transfers[k:]...), transfers[:k]...)
			_, body := do(s, "GET", predictTarget(transferQuery(rotated, nil)), "")
			var preds []Prediction
			if err := json.Unmarshal([]byte(body), &preds); err != nil {
				t.Fatal(err)
			}
			if wantPreds == nil {
				wantPreds = preds
			}
			for i := range preds {
				if preds[i] != wantPreds[(i+k)%len(transfers)] {
					t.Fatalf("round %d rotation %d: prediction %d = %+v, want %+v", round, k, i, preds[i], wantPreds[(i+k)%len(transfers)])
				}
			}
		}
		fc.mu.Lock()
		var perEntry []int
		total := 0
		fc.entries.Each(func(_ forecastKey, ent cacheEntry) {
			n := len(ent.renderings)
			perEntry = append(perEntry, n)
			total += n
		})
		indexed := len(fc.rendered)
		fc.mu.Unlock()
		for _, n := range perEntry {
			if n > maxRenderingsPerEntry {
				t.Fatalf("round %d: an entry holds %d renderings, bound %d", round, n, maxRenderingsPerEntry)
			}
		}
		if indexed != total {
			t.Fatalf("round %d: index holds %d renderings, entries own %d", round, indexed, total)
		}
		if b := renderingBytes(fc); round == 0 {
			retained = b
		} else if b != retained {
			t.Fatalf("round %d: index retains %d bytes, was %d after round 0", round, b, retained)
		}
	}
	// Round 0: rotation 0 misses, rotations 1..maxRenderingsPerEntry hit
	// and are remembered. Rounds 1 and 2: those hit rendered, the other 26
	// canonically.
	if st := fc.Stats(); st.RenderedHits != 2*maxRenderingsPerEntry {
		t.Fatalf("rendered hits %d, want %d", st.RenderedHits, 2*maxRenderingsPerEntry)
	}
}

// TestRenderedConcurrentPollersAndWriter runs 8 pollers on two request
// lines against one update_links writer (meaningful under -race). Every
// answer must be one a quiescent server gives for some epoch of the run,
// and the accounting must add up: each 200 is a hit, a miss or a
// coalesced hit.
func TestRenderedConcurrentPollersAndWriter(t *testing.T) {
	entry := miniEntry(t)
	s, reg := renderedServer(t, entry)
	targets := []string{
		predictTarget(transferQuery([]TransferRequest{{lyon(1), lyon(2), 1e8}, {lyon(3), nancy(1), 5e8}}, nil)),
		predictTarget(transferQuery([]TransferRequest{{lyon(3), nancy(1), 5e8}, {lyon(1), lyon(2), 1e8}}, nil)),
	}
	const epochs = 12
	bandwidth := func(e int) float64 { return 4e7 + float64(float64(e)*5e6) }
	// The legal answers: each target against the base epoch and against
	// every epoch the writer will publish, from an oracle fed in order.
	oracle, oracleReg := renderedServer(t, entry)
	oracle.SetLegacyJSON(true)
	legal := make([]map[string]bool, len(targets))
	for i := range legal {
		legal[i] = map[string]bool{}
	}
	record := func() {
		for i, target := range targets {
			_, body := do(oracle, "GET", target, "")
			legal[i][body] = true
		}
	}
	record()
	for e := 0; e < epochs; e++ {
		if _, err := oracleReg.ObserveLinkState("g5k_test", int64(1336111200+e), "test", []platform.LinkUpdate{
			{Link: lyon(1) + "_nic", Bandwidth: bandwidth(e), Latency: -1}}); err != nil {
			t.Fatal(err)
		}
		record()
	}

	// The pollers run until the writer is through (or one of them fails);
	// the writer paces itself on their answers, not on the clock.
	const perEpoch = 40
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	// Unbuffered, and pollers only offer: a tick is delivered when the writer
	// is waiting for one — so it counts an answer finished after the epoch
	// was published — and is dropped otherwise, so a poller never waits.
	tick := make(chan struct{})
	var answered atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				which := (p + i) % len(targets)
				code, body := do(s, "GET", targets[which], "")
				if code != http.StatusOK || !legal[which][body] {
					t.Errorf("poller %d: status %d, body not an answer of any epoch: %q", p, code, body)
					stop()
					return
				}
				answered.Add(1)
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}(p)
	}
	for e := 0; e < epochs; e++ {
		if _, err := reg.ObserveLinkState("g5k_test", int64(1336111200+e), "test", []platform.LinkUpdate{
			{Link: lyon(1) + "_nic", Bandwidth: bandwidth(e), Latency: -1}}); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < perEpoch; n++ { // let the pollers see this epoch
			select {
			case <-tick:
			case <-ctx.Done():
			}
		}
	}
	stop()
	wg.Wait()
	st := s.cache.Load().Stats()
	if got := st.Hits + st.Misses + st.CoalescedHits; got != answered.Load() {
		t.Fatalf("%d answers but hits+misses+coalesced = %d (%+v)", answered.Load(), got, st)
	}
	if st.RenderedHits == 0 || st.Misses < epochs {
		t.Fatalf("the run did not exercise the index across epochs: %+v", st)
	}
	// Quiescent: the last epoch's answer, byte for byte.
	for i, target := range targets {
		_, body := do(s, "GET", target, "")
		_, want := do(oracle, "GET", target, "")
		if body != want {
			t.Fatalf("target %d after the run: %q, oracle %q", i, body, want)
		}
	}
}

// TestMalformedQueryStrings400 is the regression for the silent-drop bug:
// a bad escape or a raw ';' used to make r.URL.Query() discard the
// parameter it sat in, so the server answered 200 for a different
// question (one transfer fewer, a hypothesis lost and indices shifted).
// Every endpoint that reads query parameters must answer 400 naming the
// parse error.
func TestMalformedQueryStrings400(t *testing.T) {
	srv, _ := newTestServer(t)
	tr := func(a, b int) string { return lyon(a) + "," + lyon(b) + ",1e8" }
	endpoints := []struct{ name, method, path, query, body string }{
		{"predict_transfers", "GET", "/pilgrim/predict_transfers/g5k_test", "transfer=" + tr(1, 2) + "&transfer=" + tr(3, 4), ""},
		{"select_fastest", "GET", "/pilgrim/select_fastest/g5k_test", "hypothesis=" + tr(1, 2) + "&hypothesis=" + tr(3, 4), ""},
		{"predict_workflow", "POST", "/pilgrim/predict_workflow/g5k_test", "deadline=30", `{"tasks": []}`},
		{"evaluate", "POST", "/pilgrim/evaluate/g5k_test", "deadline=30", `{"scenarios": [{"name": "baseline"}], "queries": []}`},
		{"bg_estimate", "POST", "/pilgrim/bg_estimate/g5k_test", "tool=ganglia&begin=0&end=60", ""},
		{"rrd", "GET", "/pilgrim/rrd/ganglia/lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd/", "begin=0&end=3600", ""},
	}
	malformations := []struct{ name, suffix string }{
		{"bad escape", "%zz"},
		{"raw semicolon", ";" + tr(5, 6)},
	}
	for _, ep := range endpoints {
		for _, m := range malformations {
			req, err := http.NewRequest(ep.method, srv.URL+ep.path+"?"+ep.query+m.suffix, bytes.NewBufferString(ep.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var body bytes.Buffer
			_, _ = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.String(), "malformed query string") {
				t.Errorf("%s, %s: status %d body %q, want 400 naming the malformed query", ep.name, m.name, resp.StatusCode, strings.TrimSpace(body.String()))
			}
		}
	}
	// The documented form of a multi-transfer hypothesis still works.
	resp, err := http.Get(srv.URL + "/pilgrim/select_fastest/g5k_test?hypothesis=" + tr(1, 2) + "%3B" + tr(3, 4) + "&hypothesis=" + tr(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var answer selectFastestResponse
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%%3B-separated hypothesis: status %d, decode error %v", resp.StatusCode, err)
	}
	if len(answer.Results) != 2 || len(answer.Results[0].Predictions) != 2 {
		t.Fatalf("%%3B-separated hypothesis: %+v, want 2 hypotheses, the first with 2 transfers", answer)
	}
}
