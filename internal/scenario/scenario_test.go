package scenario

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pilgrim/internal/platform"
)

func f64(v float64) *float64 { return &v }

func testSnapshot(t testing.TB) *platform.Snapshot {
	t.Helper()
	p := platform.New("sc", platform.RoutingFull)
	as := p.Root()
	for _, h := range []string{"a", "b"} {
		if _, err := as.AddHost(h, 1e9); err != nil {
			t.Fatal(err)
		}
		if _, err := as.AddLink(h+"_nic", 1e8, 1e-4, platform.Shared); err != nil {
			t.Fatal(err)
		}
	}
	links := []platform.LinkUse{
		{Link: p.Link("a_nic"), Direction: platform.Up},
		{Link: p.Link("b_nic"), Direction: platform.Down},
	}
	if err := as.AddRoute("a", "b", links, true); err != nil {
		t.Fatal(err)
	}
	return p.Snapshot()
}

func TestResolveComposesInOrder(t *testing.T) {
	base := testSnapshot(t)
	sc := Scenario{Name: "degrade", Mutations: []Mutation{
		{Op: OpScaleLink, Link: "a_nic", BandwidthFactor: 0.5},
		{Op: OpScaleLink, Link: "a_nic", BandwidthFactor: 0.5}, // composes: 0.25x
		{Op: OpSetLink, Link: "b_nic", Latency: f64(5e-3)},
	}}
	snap, r, err := sc.Compile(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	ai, _ := base.LinkIndex("a_nic")
	bi, _ := base.LinkIndex("b_nic")
	if got := snap.LinkBandwidth(ai); got != 0.25e8 {
		t.Errorf("a_nic bandwidth = %v, want 2.5e7", got)
	}
	if got := snap.LinkLatency(bi); got != 5e-3 {
		t.Errorf("b_nic latency = %v, want 5e-3", got)
	}
	if got := snap.LinkBandwidth(bi); got != 1e8 {
		t.Errorf("b_nic bandwidth changed: %v", got)
	}
	if snap.Epoch() == base.Epoch() {
		t.Error("non-empty overlay must derive a new epoch")
	}
	if !strings.Contains(snap.Provenance(), "a_nic") || !strings.Contains(snap.Provenance(), "b_nic") {
		t.Errorf("provenance = %q", snap.Provenance())
	}
	if r.Empty() {
		t.Error("resolved overlay reported empty")
	}
}

func TestSetThenScaleComposes(t *testing.T) {
	base := testSnapshot(t)
	sc := Scenario{Mutations: []Mutation{
		{Op: OpSetLink, Link: "a_nic", Bandwidth: f64(2e8)},
		{Op: OpScaleLink, Link: "a_nic", BandwidthFactor: 0.5},
	}}
	snap, _, err := sc.Compile(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	ai, _ := base.LinkIndex("a_nic")
	if got := snap.LinkBandwidth(ai); got != 1e8 {
		t.Errorf("set-then-scale = %v, want 1e8", got)
	}
}

func TestEquivalentScenariosShareKey(t *testing.T) {
	base := testSnapshot(t)
	scale := Scenario{Name: "x", Mutations: []Mutation{
		{Op: OpScaleLink, Link: "a_nic", BandwidthFactor: 0.5},
	}}
	set := Scenario{Name: "y", Mutations: []Mutation{
		{Op: OpSetLink, Link: "a_nic", Bandwidth: f64(5e7)},
	}}
	other := Scenario{Name: "z", Mutations: []Mutation{
		{Op: OpSetLink, Link: "a_nic", Bandwidth: f64(6e7)},
	}}
	r1, err := scale.Resolve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := set.Resolve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := other.Resolve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key() != r2.Key() {
		t.Errorf("equivalent scenarios keyed differently:\n%q\n%q", r1.Key(), r2.Key())
	}
	if r1.Key() == r3.Key() {
		t.Error("different scenarios share a key")
	}
}

func TestEmptyOverlayKeepsBaseEpoch(t *testing.T) {
	base := testSnapshot(t)
	sc := Scenario{Name: "baseline-plus-bg", Mutations: []Mutation{
		{Op: OpBgTraffic, Src: "a", Dst: "b", Flows: 2},
		{Op: OpAtTime, Time: 12345},
	}}
	snap, r, err := sc.Compile(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap != base {
		t.Error("traffic-only scenario must reuse the base epoch")
	}
	if len(r.Background) != 2 {
		t.Errorf("background = %v", r.Background)
	}
	if at, ok := sc.At(); !ok || at != 12345 {
		t.Errorf("At() = %v, %v", at, ok)
	}
}

func TestFailuresResolveToZeros(t *testing.T) {
	base := testSnapshot(t)
	sc := Scenario{Mutations: []Mutation{
		{Op: OpFailLink, Link: "b_nic"},
		{Op: OpFailHost, Host: "a"},
	}}
	snap, _, err := sc.Compile(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	bi, _ := base.LinkIndex("b_nic")
	hi, _ := base.HostIndex("a")
	if !snap.LinkDown(bi) {
		t.Error("link not down")
	}
	if !snap.HostDown(hi) {
		t.Error("host not down")
	}
	if !strings.Contains(snap.Provenance(), "fail link b_nic") ||
		!strings.Contains(snap.Provenance(), "fail host a") {
		t.Errorf("provenance = %q", snap.Provenance())
	}
}

func TestBgEstimateExpansion(t *testing.T) {
	base := testSnapshot(t)
	sc := Scenario{Mutations: []Mutation{{Op: OpBgEstimate}}}
	if _, _, err := sc.Compile(base, nil); err == nil {
		t.Fatal("bg_estimate without a registered estimate accepted")
	}
	est := [][2]string{{"a", "b"}, {"b", "a"}}
	_, r, err := sc.Compile(base, est)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Background) != 2 || r.Background[0] != est[0] {
		t.Errorf("background = %v", r.Background)
	}
}

func TestValidateRejectsBadMutations(t *testing.T) {
	cases := map[string]Mutation{
		"unknown op":         {Op: "teleport"},
		"scale missing link": {Op: OpScaleLink, BandwidthFactor: 0.5},
		"scale no factor":    {Op: OpScaleLink, Link: "l"},
		"scale neg factor":   {Op: OpScaleLink, Link: "l", BandwidthFactor: -1},
		"scale inf factor":   {Op: OpScaleLink, Link: "l", BandwidthFactor: math.Inf(1)},
		"set missing values": {Op: OpSetLink, Link: "l"},
		"set zero bandwidth": {Op: OpSetLink, Link: "l", Bandwidth: f64(0)},
		"set neg latency":    {Op: OpSetLink, Link: "l", Latency: f64(-1)},
		"fail missing link":  {Op: OpFailLink},
		"fail missing host":  {Op: OpFailHost},
		"bg missing dst":     {Op: OpBgTraffic, Src: "a"},
		"bg self flow":       {Op: OpBgTraffic, Src: "a", Dst: "a"},
		"bg negative flows":  {Op: OpBgTraffic, Src: "a", Dst: "b", Flows: -1},
		"at_time missing":    {Op: OpAtTime},
	}
	for name, m := range cases {
		sc := Scenario{Name: name, Mutations: []Mutation{m}}
		if err := sc.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	base := testSnapshot(t)
	unknown := Scenario{Mutations: []Mutation{{Op: OpFailLink, Link: "ghost"}}}
	if _, _, err := unknown.Compile(base, nil); err == nil {
		t.Error("unknown link accepted at resolve time")
	}
	unknownHost := Scenario{Mutations: []Mutation{{Op: OpFailHost, Host: "ghost"}}}
	if _, _, err := unknownHost.Compile(base, nil); err == nil {
		t.Error("unknown host accepted at resolve time")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sc := Scenario{Name: "wire", Mutations: []Mutation{
		{Op: OpScaleLink, Link: "a_nic", BandwidthFactor: 0.4},
		{Op: OpSetLink, Link: "b_nic", Bandwidth: f64(9e7), Latency: f64(2e-4)},
		{Op: OpFailHost, Host: "a"},
		{Op: OpBgTraffic, Src: "a", Dst: "b", Flows: 3},
		{Op: OpAtTime, Time: 1336111200},
	}}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	base := testSnapshot(t)
	r1, err := sc.Resolve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := back.Resolve(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key() != r2.Key() || len(r1.Background) != len(r2.Background) {
		t.Error("scenario changed across JSON round trip")
	}
}
