package pilgrim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"pilgrim/internal/workflow"
)

// Client request defaults: every call is bounded (a hung server must not
// hang the scheduler embedding this client), and transient failures —
// connection errors, 429 shedding, 5xx — are retried with exponential
// backoff and jitter, honoring the server's Retry-After hint.
const (
	DefaultClientTimeout  = 30 * time.Second
	DefaultRetryAttempts  = 4
	DefaultRetryBaseDelay = 100 * time.Millisecond
	DefaultRetryMaxDelay  = 5 * time.Second
)

// RetryPolicy configures the client's backoff. Zero values select the
// package defaults; MaxAttempts 1 disables retries entirely.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay. The actual sleep is jittered
	// uniformly over [delay/2, delay) so a fleet of shed clients does not
	// return in lockstep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// Client is a typed HTTP client for a remote Pilgrim instance; it is what
// a resource management system embeds to take scheduling decisions
// (paper §I).
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client; nil means a client bounded by
	// Timeout.
	HTTP *http.Client
	// Timeout bounds each attempt when HTTP is nil (0 selects
	// DefaultClientTimeout, negative disables the bound).
	Timeout time.Duration
	// Retry is the transient-failure policy (zero value: defaults).
	Retry RetryPolicy
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	t := c.Timeout
	if t == 0 {
		t = DefaultClientTimeout
	}
	if t < 0 {
		t = 0
	}
	return &http.Client{Timeout: t}
}

// retryableStatus reports whether the answer signals a transient
// condition worth backing off on: admission shedding and server-side
// failures. 4xx request-shape problems are permanent and returned as-is.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoffDelay is the jittered exponential delay before retry number
// attempt (1-based). A positive retryAfter (the server's Retry-After
// hint) takes precedence over the computed floor.
func (p RetryPolicy) backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = DefaultRetryBaseDelay
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = DefaultRetryMaxDelay
	}
	d := base << (attempt - 1)
	if d > maxd || d <= 0 {
		d = maxd
	}
	if retryAfter > d {
		d = retryAfter
	}
	// Uniform jitter over [d/2, d).
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Do runs one logical request under the policy: build is called for
// every attempt (the request body must be replayable), transient
// failures — transport errors, 429 shedding, 5xx — back off with jitter
// honoring the server's Retry-After hint, and the final answer is
// returned as-is. A response is returned even when its status is
// retryable but attempts are exhausted, so proxies (the gateway) can
// forward the upstream's own answer instead of synthesizing one; the
// error return is non-nil only when no response was obtained at all.
// Context cancellation on the built request stops retries immediately,
// backoff included: a long Retry-After hint never outlives the caller.
func (p RetryPolicy) Do(hc *http.Client, build func() (*http.Request, error)) (*http.Response, error) {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultRetryAttempts
	}
	var lastErr error
	var retryAfter time.Duration
	ctx := context.Background() // the last built request's
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			backoff := time.NewTimer(p.backoffDelay(attempt-1, retryAfter))
			select {
			case <-backoff.C:
			case <-ctx.Done():
				backoff.Stop()
				return nil, ctx.Err()
			}
			retryAfter = 0
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		ctx = req.Context()
		resp, err := hc.Do(req)
		if err != nil {
			lastErr = err
			if req.Context().Err() != nil {
				return nil, lastErr // canceled or past deadline: retrying cannot help
			}
			continue
		}
		if !retryableStatus(resp.StatusCode) || attempt == attempts {
			return resp, nil
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	return nil, lastErr
}

// doJSON performs one API call with the retry policy: query is the
// encoded query string ("" for none), body (nil for GET) is replayed on
// each attempt, transient failures back off, and the 200 answer is
// decoded into out.
func (c *Client) doJSON(method, path, query string, body []byte, out interface{}) error {
	u := c.BaseURL + path
	if query != "" {
		u += "?" + query
	}
	resp, err := c.Retry.Do(c.httpClient(), func() (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, u, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, nil
	})
	if err != nil {
		return fmt.Errorf("pilgrim: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("pilgrim: %s %s: HTTP %d: %s",
			method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("pilgrim: %s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// NewFleetTransport returns an http.Transport sized for scatter-gather
// against a small fleet. net/http's zero-value Transport keeps only two
// idle connections per host (DefaultMaxIdleConnsPerHost), so a gateway
// fanning W concurrent evaluates at one worker re-handshakes W-2 of
// them every burst; perHost should match the worker's pool width
// (-forecast-workers, plus headroom for cheap control reads).
// perHost <= 0 selects 32.
func NewFleetTransport(perHost int) *http.Transport {
	if perHost <= 0 {
		perHost = 32
	}
	return &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        0, // no global cap; the per-host bound governs
		MaxIdleConnsPerHost: perHost,
		MaxConnsPerHost:     0,
		IdleConnTimeout:     90 * time.Second,
		ForceAttemptHTTP2:   true,
	}
}

func (c *Client) getJSON(path, query string, out interface{}) error {
	return c.doJSON(http.MethodGet, path, query, nil, out)
}

// Platforms lists the platforms the server can predict on.
func (c *Client) Platforms() ([]string, error) {
	var out []string
	if err := c.getJSON("/pilgrim/platforms", "", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictTransfers asks PNFS for the completion times of the given
// concurrent transfers on the named platform, against the newest
// link-state epoch.
func (c *Client) PredictTransfers(platform string, transfers []TransferRequest) ([]Prediction, error) {
	return c.predictTransfers(platform, nil, transfers)
}

// PredictTransfersAt is PredictTransfers against the link state at time
// at (Unix seconds): past times answer from the server's epoch timeline,
// future times within the server's horizon cap answer from the
// NWS-extrapolated forecast epoch.
func (c *Client) PredictTransfersAt(platform string, at int64, transfers []TransferRequest) ([]Prediction, error) {
	return c.predictTransfers(platform, strconv.AppendInt([]byte("at="), at, 10), transfers)
}

// predictTransfers appends the transfer= parameters to query in the
// server's strict query subset, so the request decodes in one pass:
// commas raw, and sizes in 'g' form without '+' ("5e08" parses to the same
// bits as "5e+08"). Host names are query-escaped; a name that needs an
// escape only sends the request down the server's generic path.
func (c *Client) predictTransfers(platform string, query []byte, transfers []TransferRequest) ([]Prediction, error) {
	for _, t := range transfers {
		if len(query) > 0 {
			query = append(query, '&')
		}
		query = append(query, "transfer="...)
		query = append(query, url.QueryEscape(t.Src)...)
		query = append(query, ',')
		query = append(query, url.QueryEscape(t.Dst)...)
		query = append(query, ',')
		n := len(query)
		query = strconv.AppendFloat(query, t.Size, 'g', -1, 64)
		if i := bytes.IndexByte(query[n:], '+'); i >= 0 {
			query = append(query[:n+i], query[n+i+1:]...)
		}
	}
	var out []Prediction
	if err := c.getJSON("/pilgrim/predict_transfers/"+url.PathEscape(platform), string(query), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SelectFastest asks the server to simulate each hypothesis and pick the
// one with the smallest makespan.
func (c *Client) SelectFastest(platform string, hyps []Hypothesis) (best int, results []HypothesisResult, err error) {
	q := url.Values{}
	for _, h := range hyps {
		parts := make([]string, len(h.Transfers))
		for i, t := range h.Transfers {
			parts[i] = fmt.Sprintf("%s,%s,%s", t.Src, t.Dst,
				strconv.FormatFloat(t.Size, 'g', -1, 64))
		}
		q.Add("hypothesis", strings.Join(parts, ";"))
	}
	var out struct {
		Best    int                `json:"best"`
		Results []HypothesisResult `json:"results"`
	}
	if err := c.getJSON("/pilgrim/select_fastest/"+url.PathEscape(platform), q.Encode(), &out); err != nil {
		return 0, nil, err
	}
	return out.Best, out.Results, nil
}

// UpdateLinks POSTs one timestamped, attributed observation batch — the
// measure side of the measure→update→forecast loop. A zero req.Time lets
// the server stamp the arrival time.
func (c *Client) UpdateLinks(platform string, req UpdateLinksRequest) (UpdateLinksResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return UpdateLinksResponse{}, fmt.Errorf("pilgrim: encoding link updates: %w", err)
	}
	var out UpdateLinksResponse
	if err := c.doJSON(http.MethodPost, "/pilgrim/update_links/"+url.PathEscape(platform), "", body, &out); err != nil {
		return UpdateLinksResponse{}, err
	}
	return out, nil
}

// TimelineStats fetches the named platform's observation-history
// accounting: retained epochs with timestamps and provenance, history
// bound, and the server's forecast horizon cap.
func (c *Client) TimelineStats(platform string) (TimelineStatsResponse, error) {
	var out TimelineStatsResponse
	if err := c.getJSON("/pilgrim/timeline_stats/"+url.PathEscape(platform), "", &out); err != nil {
		return TimelineStatsResponse{}, err
	}
	return out, nil
}

// Evaluate posts an N-scenario × M-query what-if batch and returns the
// full answer grid. Scenario compile failures and per-cell simulation
// failures are reported inside the response, not as a call error.
func (c *Client) Evaluate(platform string, req EvaluateRequest) (*EvaluateResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("pilgrim: encoding evaluate request: %w", err)
	}
	var out EvaluateResponse
	if err := c.doJSON(http.MethodPost, "/pilgrim/evaluate/"+url.PathEscape(platform), "", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PredictWorkflow posts a workflow DAG for simulation and returns the
// forecast schedule (future-work extension §VI).
func (c *Client) PredictWorkflow(platform string, wf *workflow.Workflow) (*workflow.Forecast, error) {
	body, err := json.Marshal(wf)
	if err != nil {
		return nil, fmt.Errorf("pilgrim: encoding workflow: %w", err)
	}
	var out workflow.Forecast
	if err := c.doJSON(http.MethodPost, "/pilgrim/predict_workflow/"+url.PathEscape(platform), "", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CacheStats fetches the server's forecast-cache hit/miss counters.
func (c *Client) CacheStats() (CacheStats, error) {
	var out CacheStats
	if err := c.getJSON("/pilgrim/cache_stats", "", &out); err != nil {
		return CacheStats{}, err
	}
	return out, nil
}

// RRDPoint is one [timestamp, value] sample from the metrology service.
type RRDPoint struct {
	Timestamp int64
	Value     float64
}

// FetchMetric queries the metrology service for all samples of a metric
// between begin and end (Unix seconds).
func (c *Client) FetchMetric(tool, site, host, metric string, begin, end int64) ([]RRDPoint, error) {
	q := url.Values{}
	q.Set("begin", strconv.FormatInt(begin, 10))
	q.Set("end", strconv.FormatInt(end, 10))
	path := fmt.Sprintf("/pilgrim/rrd/%s/%s/%s/%s.rrd/",
		url.PathEscape(tool), url.PathEscape(site), url.PathEscape(host), url.PathEscape(metric))
	var raw [][2]float64
	if err := c.getJSON(path, q.Encode(), &raw); err != nil {
		return nil, err
	}
	out := make([]RRDPoint, len(raw))
	for i, p := range raw {
		out[i] = RRDPoint{Timestamp: int64(p[0]), Value: p[1]}
	}
	return out, nil
}
