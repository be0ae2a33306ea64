package pilgrim

import (
	"bytes"
	"encoding/json"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"pilgrim/internal/scenario"
)

// checkStrictEvaluate runs the strict evaluate decoder on body and, when it
// accepts, holds the result to json.Unmarshal's. The decode reads a copy
// that is overwritten afterwards, so a string aliasing the body shows up as
// a difference. Reports whether the strict decoder accepted.
func checkStrictEvaluate(t *testing.T, body []byte) bool {
	t.Helper()
	scratch := append([]byte(nil), body...)
	var fast EvaluateRequest
	accepted := fast.decodeStrict(scratch)
	for i := range scratch {
		scratch[i] = 'x'
	}
	if !accepted {
		if !reflect.DeepEqual(fast, EvaluateRequest{}) {
			t.Fatalf("declined %q but left %+v behind", body, fast)
		}
		return false
	}
	var want EvaluateRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("strict decoder accepted %q, json.Unmarshal rejects it: %v", body, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("strict and json.Unmarshal decodes of %q differ\nstrict: %#v\njson:   %#v", body, fast, want)
	}
	return true
}

// FuzzDecodeEvaluate: whatever the strict evaluate decoder accepts,
// json.Unmarshal accepts too and decodes to a deeply equal request. Seeds
// are the evaluate fuzz grids plus near misses of the accept set.
func FuzzDecodeEvaluate(f *testing.F) {
	for _, seed := range evaluateFuzzSeeds(f, miniEntry(f)) {
		f.Add(seed)
	}
	tr := `{"src":"a","dst":"b","size":5e8}`
	for _, seed := range []string{
		`{"Queries":[{"kind":"predict_transfers","transfers":[` + tr + `]}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[{"src":"café","dst":"b","size":1}]}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[{"src":"café","dst":"b","size":1}]}]}`,
		`{"queries":null}`,
		`{"scenarios":[{"name":null}],"queries":[]}`,
		`{"queries":[],"queries":[{"kind":"k"}]}`,
		// json.Unmarshal decodes a repeated array into the elements the
		// first one left: the result keeps link "l".
		`{"scenarios":[{"name":"s","mutations":[{"op":"a","link":"l"}],"mutations":[{"op":"b"}]}],"queries":[]}`,
		`{"at":1.0,"queries":[]}`,
		`{"at":1e3,"queries":[]}`,
		`{"at":-0,"queries":[]}`,
		`{"at":9223372036854775808,"queries":[]}`,
		`{"queries":[]} x`,
		`{"queries":[]}` + "\n\t ",
		` { "scenarios" : [ ] , "queries" : [ ] } `,
		`{"queries":[{"kind":"predict_transfers","transfers":[]}]}`,
		`{"queries":[{"kind":"predict_transfers"}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[` + tr + `],"bg":[["a","b"],["c","d"]]}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[` + tr + `],"bg":[["a"]]}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[` + tr + `],"bg":[["a","b","c"]]}]}`,
		`{"queries":[{"kind":"predict_workflow","workflow":{"tasks":[]}}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[{"src":"a","dst":"b","size":1e400}]}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[{"src":"a","dst":"b","size":01}]}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[{"src":"a","dst":"b","size":-0.5e-3}]}]}`,
		`{"queries":[{"kind":"predict_transfers","transfers":[{"src":"a","dst":"b","size":1.}]}]}`,
		`{"scenarios":[{"name":"s","mutations":[{"op":"set_link","link":"l","bandwidth":1e9,"latency":0}]}],"queries":[]}`,
		`{"scenarios":[{"name":"s","mutations":[{"op":"bg_traffic","src":"a","dst":"b","flows":3},{"op":"at_time","time":1336111200}]}],"queries":[]}`,
		`{"scenarios":[{"name":"s","mutations":[{"op":"fail_host","host":"h","flows":2.5}]}],"queries":[]}`,
		`{"scenarios":[{"name":"s","mutations":[]}],"queries":[{"kind":"select_fastest","hypotheses":[{"transfers":[` + tr + `]},{"transfers":[]}]}]}`,
		`{"unknown":1,"queries":[]}`,
		`{"queries":[],}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkStrictEvaluate(t, body)
	})
}

// predictQueryView is what a decoded query answers the handler: the
// transfers, background pairs, at/deadline values and presence, and the
// error texts.
type predictQueryView struct {
	Transfers          []TransferRequest
	Background         [][2]string
	At, Deadline       string
	HasAt, HasDeadline bool
	TransferErr, BgErr string
	Err                string
}

func viewOf(p *predictQuery) predictQueryView {
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	return predictQueryView{
		Transfers: p.transfers, Background: p.background,
		At: p.at, Deadline: p.deadline, HasAt: p.hasAt, HasDeadline: p.hasDeadline,
		TransferErr: text(p.transferErr), BgErr: text(p.bgErr), Err: text(p.err()),
	}
}

// checkStrictPredict runs the strict query decoder on raw and, when it
// accepts, holds the result to the url.ParseQuery path's. Reports whether
// the strict decoder accepted.
func checkStrictPredict(t *testing.T, raw string) bool {
	t.Helper()
	var fast predictQuery
	if !fast.decodeStrict(raw) {
		// Declining keeps the transfer list's capacity, nothing else.
		if got := viewOf(&fast); !reflect.DeepEqual(got, viewOf(&predictQuery{transfers: fast.transfers[:0]})) {
			t.Fatalf("declined %q but left %+v behind", raw, got)
		}
		return false
	}
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatalf("strict decoder accepted %q, url.ParseQuery rejects it: %v", raw, err)
	}
	var want predictQuery
	want.fromValues(q)
	if got, exp := viewOf(&fast), viewOf(&want); !reflect.DeepEqual(got, exp) {
		t.Fatalf("strict and url.ParseQuery decodes of %q differ\nstrict: %+v\nparse:  %+v", raw, got, exp)
	}
	return true
}

// FuzzDecodePredictQuery: whatever the strict query decoder accepts,
// url.ParseQuery accepts too, and the two paths hand the handler the same
// transfers, background pairs, at/deadline values (and presence) and
// errors.
func FuzzDecodePredictQuery(f *testing.F) {
	tr := func(a, b int) string { return lyon(a) + "," + lyon(b) + ",1e8" }
	for _, q := range []string{
		"transfer=" + tr(1, 2) + "&transfer=" + tr(3, 4),
		"transfer=" + tr(1, 2) + "&transfer=" + tr(3, 4) + "%zz",
		"transfer=" + tr(1, 2) + ";" + tr(5, 6),
		"transfer=" + tr(1, 2) + "&bg=" + lyon(3) + "," + lyon(4) + "&at=1336111200&deadline=30",
		"transfer=" + lyon(1) + "," + nancy(1) + ",NaN",
		"transfer=" + tr(1, 2) + "&&transfer=" + tr(3, 4) + "&",
		"transfer=" + tr(1, 2) + "&at=&deadline=",
		"transfer=" + tr(1, 2) + "&at=1&at=2&deadline=3&deadline=",
		"transfer=" + tr(1, 2) + "&at",
		"transfer=" + tr(1, 2) + "&=x&other=y",
		"transfer=" + tr(1, 2) + "&bg=" + lyon(3) + "&bg=a,b,c",
		"transfer=a,b&transfer=" + tr(1, 2) + "&transfer=c",
		"transfer=" + lyon(1) + "%2C" + lyon(2) + "%2C1e8",
		"transfer=" + lyon(1) + "," + lyon(2) + ",5e+08",
		"transfer=" + tr(1, 2) + "=extra",
		"bg=a,b",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		checkStrictPredict(t, raw)
	})
}

// clientEvaluateBody is bench/pilgrimbench's evaluateBody (gen.go), copied
// as a fixture: the evaluate body the system benchmark's clients send.
func clientEvaluateBody(req *EvaluateRequest) []byte {
	var b bytes.Buffer
	b.WriteString(`{"scenarios":[`)
	for i, sc := range req.Scenarios {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"name":"` + sc.Name + `"`)
		if len(sc.Mutations) > 0 {
			b.WriteString(`,"mutations":[`)
			for j, m := range sc.Mutations {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(`{"op":"` + string(m.Op) + `","link":"` + m.Link + `"`)
				if m.BandwidthFactor != 0 {
					b.WriteString(`,"bandwidth_factor":`)
					b.Write(strconv.AppendFloat(nil, m.BandwidthFactor, 'g', -1, 64))
				}
				if m.LatencyFactor != 0 {
					b.WriteString(`,"latency_factor":`)
					b.Write(strconv.AppendFloat(nil, m.LatencyFactor, 'g', -1, 64))
				}
				b.WriteByte('}')
			}
			b.WriteByte(']')
		}
		b.WriteByte('}')
	}
	b.WriteString(`],"queries":[`)
	for i, q := range req.Queries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"kind":"` + q.Kind + `","transfers":[`)
		for k, t := range q.Transfers {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"src":"` + t.Src + `","dst":"` + t.Dst + `","size":`)
			b.Write(strconv.AppendFloat(nil, t.Size, 'f', -1, 64))
			b.WriteByte('}')
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestClientBodiesTakeTheFastPath holds the strict decoders to the traffic
// actually sent: the system benchmark's whatif-grid body, every body
// pilgrim.Client.Evaluate would marshal for the evaluate fuzz grids, and
// the benchmarks' predict_transfers queries must all be accepted, not
// declined, and decode as their generic counterparts do.
func TestClientBodiesTakeTheFastPath(t *testing.T) {
	entry := miniEntry(t)
	hosts := entry.Platform.Hosts()
	var transfers []TransferRequest
	for i := 0; i < 30; i++ {
		transfers = append(transfers, TransferRequest{
			Src: hosts[i%len(hosts)].ID, Dst: hosts[(i+5)%len(hosts)].ID, Size: float64(100000000 + 7919*i),
		})
	}
	links := entry.Platform.Links()
	grid := &EvaluateRequest{
		Scenarios: []scenario.Scenario{{Name: "baseline"}},
		Queries:   []EvalQuery{{Kind: QueryPredictTransfers, Transfers: transfers}},
	}
	for i := 0; i < 6; i++ {
		grid.Scenarios = append(grid.Scenarios, scenario.Scenario{
			Name:      "off-path-" + strconv.Itoa(i),
			Mutations: []scenario.Mutation{{Op: scenario.OpScaleLink, Link: links[i].ID, BandwidthFactor: 0.30 + float64(i)*0.013579}},
		})
	}
	grid.Scenarios = append(grid.Scenarios, scenario.Scenario{
		Name:      "on-path-lat",
		Mutations: []scenario.Mutation{{Op: scenario.OpScaleLink, Link: links[6].ID, LatencyFactor: 1.654321}},
	})
	if !checkStrictEvaluate(t, clientEvaluateBody(grid)) {
		t.Fatalf("the whatif-grid body was declined: %s", clientEvaluateBody(grid))
	}

	marshaled := 0
	for _, seed := range evaluateFuzzSeeds(t, entry) {
		var req EvaluateRequest
		if json.Unmarshal(seed, &req) != nil {
			continue
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, seed) {
			continue // a hand-written seed, not what a client marshals
		}
		marshaled++
		if !checkStrictEvaluate(t, body) {
			t.Fatalf("a json.Marshal-encoded request was declined: %s", body)
		}
	}
	if marshaled < 5 {
		t.Fatalf("only %d evaluate fuzz seeds are json.Marshal output", marshaled)
	}

	// transferQuery spells transfers as the benchmarks' predictURLOf and
	// bench/'s predictOp do.
	query := transferQuery(transfers, nil)
	for _, raw := range []string{query, transferQuery(transfers, [][2]string{{hosts[0].ID, hosts[1].ID}}), query + "&at=1336111200&deadline=30"} {
		if !checkStrictPredict(t, raw) {
			t.Fatalf("a predict_transfers query was declined: %s", raw)
		}
	}
}
