// Command pilgrimload is a closed-loop HTTP load generator for pilgrimd
// (or pilgrimgw): it drives the predict_transfers hot path with a fixed
// number of concurrent clients, optionally paced to a target QPS, and
// reports throughput plus a latency histogram (p50/p95/p99) as JSON.
//
//	pilgrimload -server http://127.0.0.1:8080 -platform g5k_mini \
//	    -duration 5s -concurrency 8 [-qps 500] [-transfers 8] \
//	    [-distinct 16] [-json report.json] [-min-qps 100] [-max-errors 0]
//
// Closed loop means each client waits for its response before issuing
// the next request, so the measured latency is real server latency, not
// coordinated-omission fiction; -qps adds pacing on top (clients sleep
// until their global slot) and is a target, not a guarantee — a saturated
// server simply caps the loop.
//
// The workload is the serving benchmark's shape: -distinct pre-built
// predict_transfers queries of -transfers random transfers each, issued
// round-robin, so the forecast cache and the coalescing layer see the
// duplicate-heavy traffic a scheduler's polling loop produces. Host
// names come from generating the named platform locally with the same
// deterministic generator pilgrimd uses — no discovery endpoint needed.
//
// Exit status is 1 when the run misses -min-qps or exceeds -max-errors,
// so CI can assert a sane serving path with one invocation (see the
// loadgen-smoke job), and 2 on setup errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platgen"
	"pilgrim/internal/stats"
)

type latencySummary struct {
	MinMs  float64 `json:"min_ms"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

type report struct {
	Server          string         `json:"server"`
	Platform        string         `json:"platform"`
	Endpoint        string         `json:"endpoint"`
	Concurrency     int            `json:"concurrency"`
	TargetQPS       float64        `json:"target_qps,omitempty"`
	DurationSeconds float64        `json:"duration_seconds"`
	Requests        int64          `json:"requests"`
	Errors          int64          `json:"errors"`
	QPS             float64        `json:"qps"`
	BytesRead       int64          `json:"bytes_read"`
	Latency         latencySummary `json:"latency"`
}

func main() {
	var (
		server      = flag.String("server", "http://127.0.0.1:8080", "pilgrimd or pilgrimgw base URL")
		platform    = flag.String("platform", "g5k_test", "registered platform to query (g5k_test, g5k_cabinets, g5k_mini)")
		duration    = flag.Duration("duration", 5*time.Second, "how long to drive load")
		concurrency = flag.Int("concurrency", 8, "concurrent closed-loop clients")
		qps         = flag.Float64("qps", 0, "target aggregate QPS (0 = unpaced, as fast as the closed loop allows)")
		transfers   = flag.Int("transfers", 8, "transfers per predict_transfers request")
		distinct    = flag.Int("distinct", 16, "distinct queries issued round-robin (cache/coalescing mix)")
		seed        = flag.Int64("seed", 42, "workload RNG seed")
		jsonPath    = flag.String("json", "", "also write the JSON report to this file")
		minQPS      = flag.Float64("min-qps", 0, "fail (exit 1) when measured QPS falls below this")
		maxErrors   = flag.Int64("max-errors", 0, "fail (exit 1) when more than this many requests error")
		quiet       = flag.Bool("quiet", false, "suppress the human-readable summary on stderr")
	)
	flag.Parse()
	if *concurrency < 1 || *transfers < 1 || *distinct < 1 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "pilgrimload: -concurrency, -transfers, -distinct must be >= 1 and -duration > 0")
		os.Exit(2)
	}

	urls, err := buildQueries(*server, *platform, *transfers, *distinct, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pilgrimload:", err)
		os.Exit(2)
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency,
			MaxIdleConnsPerHost: *concurrency,
		},
	}

	// Warm-up probe: one request outside the measurement window, so a
	// dead server fails fast with a real error instead of a zero report.
	if _, _, err := get(client, urls[0]); err != nil {
		fmt.Fprintln(os.Stderr, "pilgrimload: probe failed:", err)
		os.Exit(2)
	}

	var (
		next      atomic.Int64 // round-robin query index and pacing slot
		requests  atomic.Int64
		errors    atomic.Int64
		bytesRead atomic.Int64
		wg        sync.WaitGroup
	)
	perWorker := make([][]time.Duration, *concurrency)
	start := time.Now()
	deadline := start.Add(*duration)
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, 4096)
			for {
				n := next.Add(1) - 1
				if *qps > 0 {
					// Global pacing: request n is due at start + n/qps.
					due := start.Add(time.Duration(float64(n) / *qps * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				if !time.Now().Before(deadline) {
					break
				}
				t0 := time.Now()
				nbytes, status, err := get(client, urls[n%int64(len(urls))])
				requests.Add(1)
				if err != nil || status != http.StatusOK {
					errors.Add(1)
					continue
				}
				bytesRead.Add(nbytes)
				lat = append(lat, time.Since(t0))
			}
			perWorker[w] = lat
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, lat := range perWorker {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	rep := report{
		Server:          *server,
		Platform:        *platform,
		Endpoint:        "predict_transfers",
		Concurrency:     *concurrency,
		TargetQPS:       *qps,
		DurationSeconds: elapsed.Seconds(),
		Requests:        requests.Load(),
		Errors:          errors.Load(),
		QPS:             float64(requests.Load()) / elapsed.Seconds(),
		BytesRead:       bytesRead.Load(),
		Latency:         summarize(all),
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "pilgrimload:", err)
		os.Exit(2)
	}
	if *jsonPath != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pilgrimload:", err)
			os.Exit(2)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "pilgrimload: %d requests in %.2fs = %.1f QPS, %d errors, p50 %.2fms p95 %.2fms p99 %.2fms\n",
			rep.Requests, rep.DurationSeconds, rep.QPS, rep.Errors, rep.Latency.P50Ms, rep.Latency.P95Ms, rep.Latency.P99Ms)
	}

	if rep.Errors > *maxErrors {
		fmt.Fprintf(os.Stderr, "pilgrimload: FAIL — %d errors (max %d)\n", rep.Errors, *maxErrors)
		os.Exit(1)
	}
	if *minQPS > 0 && rep.QPS < *minQPS {
		fmt.Fprintf(os.Stderr, "pilgrimload: FAIL — %.1f QPS below the %.1f floor\n", rep.QPS, *minQPS)
		os.Exit(1)
	}
}

// buildQueries renders the distinct predict_transfers URLs by generating
// the named platform locally (the same deterministic build pilgrimd
// performs for its -platforms flag) and sampling host pairs.
func buildQueries(server, platform string, transfers, distinct int, seed int64) ([]string, error) {
	dataset, variant, ok := platgen.Named(platform, g5k.Default())
	if !ok {
		return nil, fmt.Errorf("unknown platform %q (have g5k_test, g5k_cabinets, g5k_mini)", platform)
	}
	plat, err := platgen.Generate(dataset, platgen.Options{Variant: variant})
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", platform, err)
	}
	hosts := plat.Hosts()
	if len(hosts) < 2 {
		return nil, fmt.Errorf("platform %s has %d hosts, need >= 2", platform, len(hosts))
	}
	rng := stats.NewRNG(seed)
	base := strings.TrimRight(server, "/") + "/pilgrim/predict_transfers/" + platform
	urls := make([]string, distinct)
	for q := range urls {
		var sb strings.Builder
		sb.WriteString(base)
		for i := 0; i < transfers; i++ {
			pair := rng.Sample(len(hosts), 2)
			// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
			size := math.Trunc(1e8 * (1 + float64(9*rng.Float64())))
			if i == 0 {
				sb.WriteByte('?')
			} else {
				sb.WriteByte('&')
			}
			fmt.Fprintf(&sb, "transfer=%s,%s,%.0f", hosts[pair[0]].ID, hosts[pair[1]].ID, size)
		}
		urls[q] = sb.String()
	}
	return urls, nil
}

// get issues one request and drains the body (keep-alive reuse).
func get(client *http.Client, url string) (int64, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return n, resp.StatusCode, err
	}
	return n, resp.StatusCode, nil
}

// summarize reduces a sorted latency series to the report percentiles.
func summarize(sorted []time.Duration) latencySummary {
	if len(sorted) == 0 {
		return latencySummary{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return ms(sorted[i])
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return latencySummary{
		MinMs:  ms(sorted[0]),
		MeanMs: ms(sum) / float64(len(sorted)),
		P50Ms:  pct(0.50),
		P95Ms:  pct(0.95),
		P99Ms:  pct(0.99),
		MaxMs:  ms(sorted[len(sorted)-1]),
	}
}
