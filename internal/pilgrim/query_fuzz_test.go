package pilgrim

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// queryFuzzEndpoints are the three decode surfaces FuzzQueryHTTP drives:
// the two GET endpoints decode the raw query string, update_links decodes
// its body (bare array or object, time as a number or a date string).
var queryFuzzEndpoints = []struct{ method, path string }{
	{http.MethodGet, "/pilgrim/predict_transfers/g5k_test"},
	{http.MethodGet, "/pilgrim/select_fastest/g5k_test"},
	{http.MethodPost, "/pilgrim/update_links/g5k_test"},
}

// FuzzQueryHTTP pushes arbitrary query strings through predict_transfers and
// select_fastest, and arbitrary bodies through update_links (so the GETs
// that follow are answered against whatever timeline the fuzzer built). No
// input may panic a handler or draw a 5xx other than the documented 504 of
// an expired deadline=; a GET answered 200 must be served byte-identically by
// the rendered index, the pooled encoder and encoding/json (SetLegacyJSON —
// this comparison is why the setter exists). Seeds are the shapes of
// TestMalformedQueryStrings400 and of the update_links tests.
func FuzzQueryHTTP(f *testing.F) {
	s, _ := renderedServer(f, miniEntry(f))
	tr := func(a, b int) string { return lyon(a) + "," + lyon(b) + ",1e8" }
	for _, q := range []string{
		"transfer=" + tr(1, 2) + "&transfer=" + tr(3, 4),
		"transfer=" + tr(1, 2) + "&transfer=" + tr(3, 4) + "%zz",
		"transfer=" + tr(1, 2) + ";" + tr(5, 6),
		"transfer=" + tr(1, 2) + "&bg=" + lyon(3) + "," + lyon(4) + "&at=1336111200&deadline=30",
		"transfer=" + lyon(1) + "," + nancy(1) + ",NaN",
		"hypothesis=" + tr(1, 2) + "&hypothesis=" + tr(3, 4),
		"hypothesis=" + tr(1, 2) + "%3B" + tr(3, 4) + "&hypothesis=" + tr(5, 6),
		"hypothesis=" + tr(1, 2) + ";" + tr(5, 6),
		"",
	} {
		f.Add(uint8(0), q)
		f.Add(uint8(1), q)
	}
	nic := lyon(1) + "_nic"
	for _, body := range []string{
		`{"time": 1336111200, "source": "iperf", "updates": [{"link": "` + nic + `", "bandwidth": 9.1e7}]}`,
		`{"time": "2012-05-04 08:00:00", "updates": [{"link": "` + nic + `", "latency": 1e-4}]}`,
		`[{"link": "` + nic + `", "bandwidth": 5e7, "latency": 2e-4}]`,
		`{"source": "iperf", "updates": [{"link": "ghost", "bandwidth": 5}]}`,
		`{"updates": [{"link": "` + nic + `", "bandwidth": -1}]}`,
		`[`,
	} {
		f.Add(uint8(2), body)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload string) {
		ep := queryFuzzEndpoints[int(which)%len(queryFuzzEndpoints)]
		if ep.method == http.MethodGet {
			// Only what a socket can deliver: net/http refuses a request line
			// it cannot parse before any handler runs.
			if _, err := url.ParseRequestURI(ep.path + "?" + payload); err != nil {
				return
			}
		}
		send := func(legacy bool) (int, string) {
			s.SetLegacyJSON(legacy)
			defer s.SetLegacyJSON(false)
			var r *http.Request
			if ep.method == http.MethodGet {
				r = httptest.NewRequest(ep.method, ep.path, nil)
				r.URL.RawQuery = payload
			} else {
				r = httptest.NewRequest(ep.method, ep.path, strings.NewReader(payload))
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code >= 500 && w.Code != http.StatusGatewayTimeout {
				t.Fatalf("%s %s: status %d: %s", ep.method, ep.path, w.Code, w.Body)
			}
			return w.Code, w.Body.String()
		}
		code, first := send(false)
		if ep.method != http.MethodGet || code != http.StatusOK {
			return
		}
		// A miss, then a canonical hit (which remembers the request line),
		// then a rendered hit, then the encoding/json oracle.
		for _, legacy := range []bool{false, false, true} {
			again, body := send(legacy)
			if again == http.StatusGatewayTimeout {
				return // a deadline= short enough to expire on some replays
			}
			if again != code || body != first {
				t.Fatalf("replay (legacy=%v) of %q answered %d %q, first answer was %d %q", legacy, payload, again, body, code, first)
			}
		}
	})
}
