package pilgrim_bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/stats"
)

// The end-to-end HTTP benchmarks measure the whole serving hot path —
// routing, admission, query parse, cache lookup, response encode — over
// a real net/http round trip, the numbers a deployed pilgrimd actually
// delivers. Where a benchmark has a legacy sub-benchmark it isolates the
// pooled-encoder work against its canonical-hit sibling: same server,
// same work up to the answer, only the JSON writer differs.

// benchServer builds a pilgrimd-shaped server with g5k_test registered
// and a warm forecast cache in front of an httptest listener.
func benchServer(b *testing.B) (*pilgrim.Server, *httptest.Server) {
	b.Helper()
	setup(b)
	reg := pilgrim.NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		b.Fatal(err)
	}
	s := pilgrim.NewServer(reg, nil)
	srv := httptest.NewServer(s)
	b.Cleanup(srv.Close)
	return s, srv
}

// benchTransfers30 builds the paper's 30-concurrent-transfers workload
// (same RNG and hosts as BenchmarkPredict30Transfers).
func benchTransfers30() []pilgrim.TransferRequest {
	rng := stats.NewRNG(42)
	hosts := entry.Platform.Hosts()
	idx := rng.Sample(len(hosts), 60)
	var reqs []pilgrim.TransferRequest
	for k := 0; k < 30; k++ {
		reqs = append(reqs, pilgrim.TransferRequest{
			Src: hosts[idx[k]].ID, Dst: hosts[idx[30+k]].ID, Size: 5e8,
		})
	}
	return reqs
}

// benchGet issues one GET and drains the body (keep-alive reuse needs
// the drain; allocations in the client count against the measured path,
// matching what a caller pays).
func benchGet(b *testing.B, client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// discardResponseWriter is a zero-allocation ResponseWriter for the
// in-process sub-benchmarks: the served bytes are counted and dropped,
// so the measurement is the server's work, not a recorder's buffering.
type discardResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardResponseWriter) Header() http.Header { return w.h }
func (w *discardResponseWriter) WriteHeader(c int)   { w.status = c }
func (w *discardResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// predictURLOf renders a predict_transfers query for the transfers in the
// order given.
func predictURLOf(prefix string, transfers []pilgrim.TransferRequest) string {
	var sb strings.Builder
	sb.WriteString(prefix + "/pilgrim/predict_transfers/g5k_test?")
	for i, tr := range transfers {
		if i > 0 {
			sb.WriteByte('&')
		}
		// 'f' format: %g would print 5e+08, whose '+' decodes as a space
		// in the query string.
		fmt.Fprintf(&sb, "transfer=%s,%s,%s", tr.Src, tr.Dst, strconv.FormatFloat(tr.Size, 'f', -1, 64))
	}
	return sb.String()
}

// serveDirect pushes one request through the full server stack —
// routing, admission, query parse, cache, encode — in process.
func serveDirect(b *testing.B, s *pilgrim.Server, method, url string, body []byte) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		b.Fatal(err)
	}
	w := discardResponseWriter{h: make(http.Header, 4)}
	s.ServeHTTP(&w, req)
	if w.status != 0 && w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// BenchmarkHTTPPredict30 is the paper's typical request (§IV-C2: 30
// concurrent transfers) served through the full HTTP stack, one
// sub-benchmark per rung of the serving ladder (docs/DESIGN.md), each
// named for what it measures:
//
//   - hit-rendered: the same URL every iteration — the resource-manager
//     poll, answered from the exact-request index with one Write;
//   - hit-canonical: the same transfer multiset with the parameter order
//     rotated every iteration — parse, canonicalize, key, LRU hit,
//     reorder, encode (the entry's renderings are filled beforehand, so no
//     rotation is ever a rendered hit);
//   - miss: a request never seen before every iteration — all of the
//     above plus one simulation and one store;
//   - legacy: hit-canonical's work with encoding/json as the writer (the
//     bench gate asserts the pooled encoder beats it);
//   - wire: hit-rendered over a real httptest round trip, the deployed
//     latency number.
//
// All but wire run in process (socket and client costs excluded).
func BenchmarkHTTPPredict30(b *testing.B) {
	s, srv := benchServer(b)
	transfers := benchTransfers30()
	// rotations[k] asks for the same multiset starting at transfer k.
	rotations := make([]string, len(transfers))
	for k := range rotations {
		rotations[k] = predictURLOf(srv.URL, append(append([]pilgrim.TransferRequest(nil), transfers[k:]...), transfers[:k]...))
	}
	url := rotations[0]
	client := srv.Client()
	// Warm the cache, and fill the entry's rendering bound with the first
	// rotations (a request line is remembered on the first hit of its
	// answer, hence two passes): the remaining ones can only ever hit
	// canonically.
	const filled = 4
	for pass := 0; pass < 2; pass++ {
		for _, u := range rotations[:filled] {
			benchGet(b, client, u)
		}
	}
	canonical := rotations[filled:]
	b.Run("hit-rendered", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveDirect(b, s, http.MethodGet, url, nil)
		}
	})
	b.Run("hit-canonical", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveDirect(b, s, http.MethodGet, canonical[i%len(canonical)], nil)
		}
	})
	b.Run("miss", func(b *testing.B) {
		// A size no earlier iteration (of this or a previous b.N round)
		// used makes the request a miss.
		fresh := transfers[0].Size
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh++
			transfers[0].Size = fresh
			u := predictURLOf(srv.URL, transfers)
			b.StartTimer()
			serveDirect(b, s, http.MethodGet, u, nil)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		s.SetLegacyJSON(true)
		defer s.SetLegacyJSON(false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveDirect(b, s, http.MethodGet, url, nil)
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, client, url)
		}
	})
}

// BenchmarkHTTPPredict60CrossSite is the system benchmark's cold-miss
// request served in process: BenchmarkCold60CrossSite's requests (60
// cross-site transfers), spelled as bench/'s clients spell them.
//
//   - miss: a distinct request every iteration (the ring's next request,
//     its first size moved each time) with every route already published,
//     so each iteration is query decode, canonicalize, one simulation, one
//     store and the encode — cold-miss's server work.
func BenchmarkHTTPPredict60CrossSite(b *testing.B) {
	s, srv := benchServer(b)
	var ring [][]pilgrim.TransferRequest
	for _, req := range crossSiteRing() {
		var transfers []pilgrim.TransferRequest
		for _, t := range req {
			transfers = append(transfers, pilgrim.TransferRequest{Src: t.Src, Dst: t.Dst, Size: t.Size})
		}
		ring = append(ring, transfers)
		// Publishes every route the ring asks for.
		serveDirect(b, s, http.MethodGet, predictURLOf(srv.URL, transfers), nil)
	}
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A size no earlier iteration (of this or a previous b.N round)
			// used makes the request a miss.
			transfers := ring[i%len(ring)]
			transfers[0].Size++
			u := predictURLOf(srv.URL, transfers)
			b.StartTimer()
			serveDirect(b, s, http.MethodGet, u, nil)
		}
	})
}

// evaluateGrid30x8 returns a renderer of the whatif-grid request shape
// (bench/README.md): one 30-transfer query under a baseline, three
// scenarios scaling links off every route (reuse), three scaling a link on
// a route (fork) and one stretching an on-route latency (cold). Sizes and
// factors derive from n, so distinct n share no forecast and no overlay.
func evaluateGrid30x8(b *testing.B) func(n int) []byte {
	transfers := benchTransfers30()
	snap := entry.Platform.Snapshot()
	on := make([]bool, snap.NumLinks())
	for _, tr := range transfers {
		route, err := snap.Route(tr.Src, tr.Dst)
		if err != nil {
			b.Fatal(err)
		}
		for _, ref := range route.Refs {
			on[ref.LinkIndex()] = true
		}
	}
	var onPath, offPath []string
	for li, hit := range on {
		if hit {
			onPath = append(onPath, snap.LinkName(int32(li)))
		} else {
			offPath = append(offPath, snap.LinkName(int32(li)))
		}
	}
	return func(n int) []byte {
		return renderGrid30x8(transfers, onPath, offPath, n)
	}
}

func renderGrid30x8(transfers []pilgrim.TransferRequest, onPath, offPath []string, n int) []byte {
	factor := func(k int) float64 { return 0.3 + float64(float64(k)*0.05) + float64(float64(n%100000)*1e-6) }
	var body bytes.Buffer
	body.WriteString(`{"scenarios":[{"name":"baseline"}`)
	for k := 0; k < 3; k++ {
		fmt.Fprintf(&body, `,{"name":"off-path-%d","mutations":[{"op":"scale_link","link":%q,"bandwidth_factor":%g}]}`,
			k, offPath[(n+k)%len(offPath)], factor(k))
	}
	for k := 0; k < 3; k++ {
		fmt.Fprintf(&body, `,{"name":"on-path-bw-%d","mutations":[{"op":"scale_link","link":%q,"bandwidth_factor":%g}]}`,
			k, onPath[(n+k)%len(onPath)], factor(3+k))
	}
	fmt.Fprintf(&body, `,{"name":"on-path-lat","mutations":[{"op":"scale_link","link":%q,"latency_factor":%g}]}`,
		onPath[(n+3)%len(onPath)], 1+factor(6))
	body.WriteString(`],"queries":[{"kind":"predict_transfers","transfers":[`)
	for i, tr := range transfers {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"src":%q,"dst":%q,"size":%d}`, tr.Src, tr.Dst, int(tr.Size)+n*30+i)
	}
	body.WriteString(`]}]}`)
	return body.Bytes()
}

// BenchmarkHTTPEvaluate30x8 serves an 8-scenario × 30-transfer evaluate
// grid through the full server stack — decode (pooled scratch), grid
// dedup, the forecast cache, the streamed row-by-row encode — named for
// what each arm answers from:
//
//   - all-hit: one body replayed against warm caches, so every cell is a
//     forecast-cache hit and nothing simulates;
//   - fresh: sizes and factors change every iteration (the whatif-grid
//     shape: 1 base run, 3 reuse, 3 fork, 1 cold) — the what-if traffic a
//     resource manager actually sends, and the arm whose B/op tracks what a
//     request allocates;
//   - legacy: all-hit's work with encoding/json as the writer;
//   - wire: all-hit over a real httptest round trip.
func BenchmarkHTTPEvaluate30x8(b *testing.B) {
	s, srv := benchServer(b)
	links := entry.Platform.Links()
	var body bytes.Buffer
	body.WriteString(`{"scenarios":[{"name":"baseline"}`)
	for i := 1; i < 8; i++ {
		fmt.Fprintf(&body, `,{"name":"deg%d","mutations":[{"op":"scale_link","link":%q,"bandwidth_factor":0.%d}]}`,
			i, links[i%len(links)].ID, i+1)
	}
	body.WriteString(`],"queries":[{"kind":"predict_transfers","transfers":[`)
	for i, tr := range benchTransfers30() {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"src":%q,"dst":%q,"size":%g}`, tr.Src, tr.Dst, tr.Size)
	}
	body.WriteString(`]}]}`)
	url := srv.URL + "/pilgrim/evaluate/g5k_test"
	client := srv.Client()
	post := func() {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm the forecast and overlay caches
	// The fresh arm measures the 3 reuse / 3 fork / 1 cold mix or nothing.
	grid := evaluateGrid30x8(b)
	var probe struct{ Stats pilgrim.EvaluateStats }
	resp, err := client.Post(url, "application/json", bytes.NewReader(grid(0)))
	if err != nil {
		b.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&probe)
	resp.Body.Close()
	if st := probe.Stats; err != nil || st.ForkReused != 3 || st.ForkRuns != 3 || st.ForkCold != 1 || st.Simulations != 5 {
		b.Fatalf("fresh grid fell off the 3 reuse / 3 fork / 1 cold mix: %+v (decode: %v)", st, err)
	}
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"all-hit", false}, {"legacy", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s.SetLegacyJSON(mode.legacy)
			defer s.SetLegacyJSON(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveDirect(b, s, http.MethodPost, url, body.Bytes())
			}
		})
	}
	b.Run("fresh", func(b *testing.B) {
		// A ring of bodies rendered outside the timer. Each request stores 8
		// forecasts and 7 overlays, so by the time the ring wraps both LRUs
		// (256 and 128 entries) have long evicted its earlier answers.
		ring := make([][]byte, 64)
		for n := range ring {
			ring[n] = grid(n + 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveDirect(b, s, http.MethodPost, url, ring[i%len(ring)])
		}
	})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post()
		}
	})
}

// BenchmarkHTTPCoalesced64Clients drives 64 concurrent clients at the
// predict endpoint, rotating the requested size every 64 requests so
// each round is one fresh simulation shared by coalescing (in-flight)
// and the LRU (afterwards): the burst shape the singleflight layer
// exists for.
func BenchmarkHTTPCoalesced64Clients(b *testing.B) {
	s, srv := benchServer(b)
	_ = s
	hosts := entry.Platform.Hosts()
	rng := stats.NewRNG(42)
	idx := rng.Sample(len(hosts), 2)
	base := srv.URL + "/pilgrim/predict_transfers/g5k_test?transfer=" +
		hosts[idx[0]].ID + "," + hosts[idx[1]].ID + ","
	client := srv.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 64
	var counter atomic.Int64
	b.SetParallelism(64)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			round := counter.Add(1) / 64
			benchGet(b, client, fmt.Sprintf("%s%d", base, 100000000+round))
		}
	})
}
