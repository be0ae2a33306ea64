package pilgrim

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
)

// newRobustnessServer builds a server exposing its *Server handle so
// tests can reach the admission controller and saturate it
// deterministically.
func newRobustnessServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("g5k_test", PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, nil)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

const predictPath = "/pilgrim/predict_transfers/g5k_test?transfer=" +
	"sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e8"

// TestAdmissionShed429 saturates a width-1, queue-0 admission controller
// and checks the next request is shed with 429, a Retry-After header, and
// the structured body — then succeeds once the slot frees up.
func TestAdmissionShed429(t *testing.T) {
	s, srv := newRobustnessServer(t)
	s.SetAdmission(1, 0, 2*time.Second)

	// Occupy the single slot out-of-band so the HTTP request finds the
	// controller full.
	release, err := s.admission.Load().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + predictPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want \"2\"", got)
	}
	var body OverCapacityError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RetryAfterSeconds != 2 || body.Error == "" {
		t.Fatalf("shed body %+v", body)
	}

	release()
	resp2, err := http.Get(srv.URL + predictPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d, want 200", resp2.StatusCode)
	}
	if st := s.admission.Load().Stats(); st.Shed != 1 || st.Admitted != 2 {
		t.Fatalf("admission stats %+v, want 1 shed / 2 admitted", st)
	}
}

// TestDeadlineExpiredWhileQueued parks a deadline-carrying request in the
// admission queue behind a held slot and checks it answers 504.
func TestDeadlineExpiredWhileQueued(t *testing.T) {
	s, srv := newRobustnessServer(t)
	s.SetAdmission(1, 1, time.Second)

	release, err := s.admission.Load().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, err := http.Get(srv.URL + predictPath + "&deadline=0.05")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if st := s.admission.Load().Stats(); st.Expired != 1 {
		t.Fatalf("admission stats %+v, want 1 expired", st)
	}
}

// TestDeadlineParam checks the deadline query parameter: malformed values
// answer 400, a generous deadline lets the request through — also one
// beyond time.Duration's range (~9.2e9 s), whose nanosecond count used to
// wrap negative and answer 504 at once — and an already-expired one
// answers 504 before any simulation starts.
func TestDeadlineParam(t *testing.T) {
	_, srv := newRobustnessServer(t)
	for _, bad := range []string{"abc", "-1", "0", "NaN", "+Inf"} {
		resp, err := http.Get(srv.URL + predictPath + "&deadline=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	for _, generous := range []string{"30", "1e9", "9.3e9", "1e300"} {
		for _, path := range []string{predictPath, "/pilgrim/select_fastest/g5k_test?hypothesis=" + lyon(1) + "," + lyon(2) + ",1e8"} {
			resp, err := http.Get(srv.URL + path + "&deadline=" + generous)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s&deadline=%s: status %d, want 200", path, generous, resp.StatusCode)
			}
		}
	}
	// A nanosecond deadline expires during admit(); the handler's
	// pre-simulation check turns it into 504 rather than burning a sim.
	resp, err := http.Get(srv.URL + predictPath + "&deadline=0.000000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
}

// TestBodyTooLarge413 checks the mutating endpoints reject oversized
// bodies with the structured 413.
func TestBodyTooLarge413(t *testing.T) {
	s, srv := newRobustnessServer(t)
	s.SetMaxBodyBytes(128)

	big := fmt.Sprintf(`{"source": %q, "updates": [{"link": "x", "bandwidth": 1}]}`,
		strings.Repeat("a", 4096))
	for _, path := range []string{
		"/pilgrim/update_links/g5k_test",
		"/pilgrim/evaluate/g5k_test",
		"/pilgrim/predict_workflow/g5k_test",
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var body BodyTooLargeError
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
		if err != nil || body.MaxBodyBytes != 128 {
			t.Fatalf("%s: 413 body %+v (err %v)", path, body, err)
		}
	}

	// A small body on the same endpoint still works.
	ok := `{"updates": [{"link": "` + testNIC + `", "bandwidth": 1.1e8}]}`
	resp, err := http.Post(srv.URL+"/pilgrim/update_links/g5k_test", "application/json", strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", resp.StatusCode)
	}
}

// TestCacheStatsReportsAdmission checks the admission accounting is
// surfaced through cache_stats.
func TestCacheStatsReportsAdmission(t *testing.T) {
	s, srv := newRobustnessServer(t)
	s.SetAdmission(4, 16, time.Second)
	resp, err := http.Get(srv.URL + "/pilgrim/cache_stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Admission AdmissionStats `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Admission.Enabled || stats.Admission.MaxInflight != 4 || stats.Admission.MaxQueue != 16 {
		t.Fatalf("cache_stats admission %+v", stats.Admission)
	}
}

// TestEvaluateHonorsDeadline checks an evaluate batch with an expired
// deadline answers 504 instead of a partial grid.
func TestEvaluateHonorsDeadline(t *testing.T) {
	_, srv := newRobustnessServer(t)
	body := `{"scenarios": [{"name": "base"}],
	 "queries": [{"kind": "predict_transfers",
	  "transfers": [{"src": "sagittaire-1.lyon.grid5000.fr", "dst": "sagittaire-2.lyon.grid5000.fr", "size": 1e8}]}]}`
	resp, err := http.Post(srv.URL+"/pilgrim/evaluate/g5k_test?deadline=0.000000001",
		"application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}
