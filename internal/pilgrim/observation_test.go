package pilgrim_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pilgrim/internal/campaign"
	"pilgrim/internal/nws"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
)

// TestObservationRule sends one measured link revision of each value
// class to the three ways a measurement enters a platform: the
// update_links endpoint, a campaign observe event (Load, then the
// in-process replay), and Registry.ObserveLinkState with the raw values.
// update_links must answer exactly what it always has; Load must accept
// exactly what update_links accepts; and every path that applies the
// revision must leave the same link state in the epoch and teach the
// forecaster bank the same values. A raw value the rule does not accept
// keeps the link's current value and never reaches the bank.
func TestObservationRule(t *testing.T) {
	const (
		link  = "sagittaire-1.lyon.grid5000.fr_nic"
		start = int64(1735689600)
		at    = start + 1
	)
	inf := math.Inf(1)
	cases := []struct {
		name string
		obs  string // the update_links element; the campaign entry is its YAML flow twin
		yaml string // the campaign entry, where it cannot be the JSON text verbatim
		bw   float64
		lat  float64
		// status and body are update_links's answer; %d in a 200 body
		// stands for the epoch it published.
		status int
		body   string
	}{
		{name: "absent", obs: `{"link":"` + link + `"}`, bw: -1, lat: -1,
			status: 400, body: "update 0 (" + link + "): bandwidth or latency required\n"},
		{name: "empty link", obs: `{"link":"","bandwidth":9.1e7}`, bw: 9.1e7, lat: -1,
			status: 400, body: "update 0: missing link id\n"},
		{name: "bandwidth 0", obs: `{"link":"` + link + `","bandwidth":0}`, bw: 0, lat: -1,
			status: 400, body: "update 0 (" + link + "): invalid bandwidth 0\n"},
		{name: "bandwidth negative", obs: `{"link":"` + link + `","bandwidth":-5}`, bw: -5, lat: -1,
			status: 400, body: "update 0 (" + link + "): invalid bandwidth -5\n"},
		{name: "bandwidth +Inf", obs: `{"link":"` + link + `","bandwidth":1e999}`,
			yaml: `{"link":"` + link + `","bandwidth":+Inf}`, bw: inf, lat: -1, status: 400,
			body: "decoding link updates: json: cannot unmarshal number 1e999 into Go struct field LinkObservation.updates.bandwidth of type float64\n"},
		{name: "bandwidth -Inf", obs: `{"link":"` + link + `","bandwidth":-1e999}`,
			yaml: `{"link":"` + link + `","bandwidth":-Inf}`, bw: -inf, lat: -1, status: 400,
			body: "decoding link updates: json: cannot unmarshal number -1e999 into Go struct field LinkObservation.updates.bandwidth of type float64\n"},
		{name: "bandwidth NaN", obs: `{"link":"` + link + `","bandwidth":NaN}`, bw: math.NaN(), lat: -1,
			status: 400, body: "decoding link updates: invalid character 'N' looking for beginning of value\n"},
		{name: "bandwidth valid", obs: `{"link":"` + link + `","bandwidth":9.1e7}`, bw: 9.1e7, lat: -1,
			status: 200, body: "{\n \"platform\": \"g5k_mini\",\n \"epoch\": %d,\n \"links_updated\": 1,\n \"time\": 1735689601,\n \"source\": \"probe\",\n \"timeline_depth\": 2\n}\n"},
		{name: "latency 0", obs: `{"link":"` + link + `","latency":0}`, bw: -1, lat: 0,
			status: 200, body: "{\n \"platform\": \"g5k_mini\",\n \"epoch\": %d,\n \"links_updated\": 1,\n \"time\": 1735689601,\n \"source\": \"probe\",\n \"timeline_depth\": 2\n}\n"},
		{name: "latency negative", obs: `{"link":"` + link + `","latency":-1e-3}`, bw: -1, lat: -1e-3,
			status: 400, body: "update 0 (" + link + "): invalid latency -0.001\n"},
		{name: "latency +Inf", obs: `{"link":"` + link + `","latency":1e999}`,
			yaml: `{"link":"` + link + `","latency":+Inf}`, bw: -1, lat: inf, status: 400,
			body: "decoding link updates: json: cannot unmarshal number 1e999 into Go struct field LinkObservation.updates.latency of type float64\n"},
		{name: "latency -Inf", obs: `{"link":"` + link + `","latency":-1e999}`,
			yaml: `{"link":"` + link + `","latency":-Inf}`, bw: -1, lat: -inf, status: 400,
			body: "decoding link updates: json: cannot unmarshal number -1e999 into Go struct field LinkObservation.updates.latency of type float64\n"},
		{name: "latency NaN", obs: `{"link":"` + link + `","latency":NaN}`, bw: -1, lat: math.NaN(),
			status: 400, body: "decoding link updates: invalid character 'N' looking for beginning of value\n"},
		{name: "latency valid", obs: `{"link":"` + link + `","latency":2.5e-4}`, bw: -1, lat: 2.5e-4,
			status: 200, body: "{\n \"platform\": \"g5k_mini\",\n \"epoch\": %d,\n \"links_updated\": 1,\n \"time\": 1735689601,\n \"source\": \"probe\",\n \"timeline_depth\": 2\n}\n"},
		{name: "both valid", obs: `{"link":"` + link + `","bandwidth":9.1e7,"latency":2.5e-4}`, bw: 9.1e7, lat: 2.5e-4,
			status: 200, body: "{\n \"platform\": \"g5k_mini\",\n \"epoch\": %d,\n \"links_updated\": 1,\n \"time\": 1735689601,\n \"source\": \"probe\",\n \"timeline_depth\": 2\n}\n"},
	}
	ref := campaign.PlatformRef{Generate: "g5k_mini"}
	registry := func(t *testing.T) *pilgrim.Registry {
		t.Helper()
		reg, err := campaign.BuildRegistry(ref)
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	// state is the link's bandwidth and latency bits in the current epoch
	// and everything the forecaster bank has learned.
	type state struct {
		bw, lat uint64
		bank    nws.BankState
	}
	stateOf := func(t *testing.T, reg *pilgrim.Registry) state {
		t.Helper()
		cur, ok := reg.Get(ref.Generate)
		if !ok {
			t.Fatal("platform not registered")
		}
		li, ok := cur.Snapshot.LinkIndex(link)
		if !ok {
			t.Fatalf("no link %s", link)
		}
		return state{
			bw:   math.Float64bits(cur.Snapshot.LinkBandwidth(li)),
			lat:  math.Float64bits(cur.Snapshot.LinkLatency(li)),
			bank: pilgrim.BankState(reg, ref.Generate),
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// update_links, on a timeline that already holds one observation
			// of the link, so every registry below starts from one bank.
			seed := []platform.LinkUpdate{{Link: link, Bandwidth: 8e7, Latency: 1e-4}}
			httpReg := registry(t)
			if _, err := httpReg.ObserveLinkState(ref.Generate, start, "seed", seed); err != nil {
				t.Fatal(err)
			}
			base := stateOf(t, httpReg)
			srv := pilgrim.NewServer(httpReg, nil)
			body := fmt.Sprintf(`{"time":%d,"source":"probe","updates":[%s]}`, at, tc.obs)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/pilgrim/update_links/"+ref.Generate, strings.NewReader(body)))
			want := tc.body
			if tc.status == http.StatusOK {
				cur, _ := httpReg.Get(ref.Generate)
				want = fmt.Sprintf(tc.body, cur.Snapshot.Epoch())
			}
			if rec.Code != tc.status || rec.Body.String() != want {
				t.Fatalf("update_links answered %d %q, want %d %q", rec.Code, rec.Body.String(), tc.status, want)
			}
			accepted := rec.Code == http.StatusOK
			got := stateOf(t, httpReg)
			if reflect.DeepEqual(got, base) == accepted {
				t.Fatalf("update_links answered %d and left %+v, was %+v", rec.Code, got, base)
			}

			// The campaign observe event: Load accepts what update_links accepts.
			entry := tc.yaml
			if entry == "" {
				entry = tc.obs
			}
			doc := fmt.Sprintf("name: obs\nplatform: %s\nstart: %d\nevents:\n  - at: 1\n    action: observe\n    source: probe\n    links:\n      - %s\nsteps:\n  - at: 2\n    queries:\n      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}\n",
				ref.Generate, start, entry)
			c, err := campaign.Load([]byte(doc))
			if (err == nil) != accepted {
				t.Fatalf("campaign Load err = %v, update_links status %d", err, rec.Code)
			}
			if accepted {
				campReg := registry(t)
				if _, err := campReg.ObserveLinkState(ref.Generate, start, "seed", seed); err != nil {
					t.Fatal(err)
				}
				if err := campaign.NewInProcessBackend(campReg, ref.Generate).Observe(at, "probe", c.Events[0].Links); err != nil {
					t.Fatal(err)
				}
				if cs := stateOf(t, campReg); !reflect.DeepEqual(cs, got) {
					t.Fatalf("campaign replay left %+v, update_links %+v", cs, got)
				}
			}

			// Registry.ObserveLinkState with the raw values: a refused value
			// keeps the link's current value and the bank learns nothing.
			if tc.name == "empty link" {
				return
			}
			rawReg := registry(t)
			if _, err := rawReg.ObserveLinkState(ref.Generate, start, "seed", seed); err != nil {
				t.Fatal(err)
			}
			if _, err := rawReg.ObserveLinkState(ref.Generate, at, "probe",
				[]platform.LinkUpdate{{Link: link, Bandwidth: tc.bw, Latency: tc.lat}}); err != nil {
				t.Fatal(err)
			}
			raw := stateOf(t, rawReg)
			if accepted && !reflect.DeepEqual(raw, got) {
				t.Fatalf("ObserveLinkState left %+v, update_links %+v", raw, got)
			}
			if !accepted && !reflect.DeepEqual(raw, base) {
				t.Fatalf("ObserveLinkState of a refused value left %+v, was %+v", raw, base)
			}
		})
	}
}
