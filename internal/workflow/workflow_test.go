package workflow

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pilgrim/internal/platform"
	"pilgrim/internal/sim"
)

// testPlatform: two hosts (1 Gflop/s and 2 Gflop/s) joined by a 100 MB/s
// link with zero latency, gamma off for closed-form checks.
func testPlatform(t testing.TB) (*platform.Platform, sim.Config) {
	t.Helper()
	p := platform.New("wf", platform.RoutingFull)
	as := p.Root()
	if _, err := as.AddHost("a", 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := as.AddHost("b", 2e9); err != nil {
		t.Fatal(err)
	}
	l, err := as.AddLink("l", 100e6/0.92, 0, platform.Shared) // so effective = 100e6
	if err != nil {
		t.Fatal(err)
	}
	if err := as.AddRoute("a", "b", []platform.LinkUse{{Link: l, Direction: platform.None}}, true); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.TCPGamma = 0
	return p, cfg
}

func TestValidateCatchesProblems(t *testing.T) {
	cases := map[string]*Workflow{
		"empty": {Name: "w"},
		"dup ids": {Name: "w", Tasks: []Task{
			{ID: "t", Kind: Compute, Host: "a", Flops: 1},
			{ID: "t", Kind: Compute, Host: "a", Flops: 1},
		}},
		"no id": {Name: "w", Tasks: []Task{{Kind: Compute, Host: "a", Flops: 1}}},
		"bad compute": {Name: "w", Tasks: []Task{
			{ID: "t", Kind: Compute, Flops: 1}, // no host
		}},
		"bad transfer": {Name: "w", Tasks: []Task{
			{ID: "t", Kind: TransferData, Src: "a", Bytes: 1}, // no dst
		}},
		"unknown dep": {Name: "w", Tasks: []Task{
			{ID: "t", Kind: Compute, Host: "a", Flops: 1, DependsOn: []string{"ghost"}},
		}},
		"self dep": {Name: "w", Tasks: []Task{
			{ID: "t", Kind: Compute, Host: "a", Flops: 1, DependsOn: []string{"t"}},
		}},
		"cycle": {Name: "w", Tasks: []Task{
			{ID: "x", Kind: Compute, Host: "a", Flops: 1, DependsOn: []string{"y"}},
			{ID: "y", Kind: Compute, Host: "a", Flops: 1, DependsOn: []string{"x"}},
		}},
		"bad kind name": {Name: "w", Tasks: []Task{
			{ID: "t", KindName: "teleport", Host: "a", Flops: 1},
		}},
	}
	for name, w := range cases {
		if _, err := w.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestValidateTopologicalOrder(t *testing.T) {
	w := &Workflow{Name: "chain", Tasks: []Task{
		{ID: "c", Kind: Compute, Host: "a", Flops: 1, DependsOn: []string{"b"}},
		{ID: "a", Kind: Compute, Host: "a", Flops: 1},
		{ID: "b", Kind: Compute, Host: "a", Flops: 1, DependsOn: []string{"a"}},
	}}
	order, err := w.Validate()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for rank, idx := range order {
		pos[w.Tasks[idx].ID] = rank
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"]) {
		t.Errorf("order = %v", order)
	}
}

func TestPredictChain(t *testing.T) {
	// compute 2 Gflop on a (2s) -> transfer 500 MB a->b (5s) ->
	// compute 4 Gflop on b (2s): makespan 9s.
	p, cfg := testPlatform(t)
	w := &Workflow{Name: "chain", Tasks: []Task{
		{ID: "stage-in", Kind: Compute, Host: "a", Flops: 2e9},
		{ID: "move", Kind: TransferData, Src: "a", Dst: "b", Bytes: 500e6, DependsOn: []string{"stage-in"}},
		{ID: "crunch", Kind: Compute, Host: "b", Flops: 4e9, DependsOn: []string{"move"}},
	}}
	f, err := Predict(p.Snapshot(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Makespan-9) > 1e-6 {
		t.Errorf("makespan = %v, want 9", f.Makespan)
	}
	byID := map[string]TaskSchedule{}
	for _, s := range f.Tasks {
		byID[s.ID] = s
	}
	if s := byID["move"]; math.Abs(s.Start-2) > 1e-9 || math.Abs(s.Finish-7) > 1e-6 {
		t.Errorf("move schedule = %+v", s)
	}
	if s := byID["crunch"]; math.Abs(s.Start-7) > 1e-6 {
		t.Errorf("crunch start = %v", s.Start)
	}
}

func TestPredictParallelTransfersContend(t *testing.T) {
	// Two independent 250 MB transfers a->b share the 100 MB/s link:
	// both take 5s instead of 2.5s.
	p, cfg := testPlatform(t)
	w := &Workflow{Name: "par", Tasks: []Task{
		{ID: "t1", Kind: TransferData, Src: "a", Dst: "b", Bytes: 250e6},
		{ID: "t2", Kind: TransferData, Src: "a", Dst: "b", Bytes: 250e6},
	}}
	f, err := Predict(p.Snapshot(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Makespan-5) > 1e-6 {
		t.Errorf("makespan = %v, want 5 (contention)", f.Makespan)
	}
}

func TestPredictDiamond(t *testing.T) {
	// Diamond: source compute fans out to two branches that join.
	// Branch 1: transfer 100 MB (1s). Branch 2: compute 3 Gflop on b
	// (1.5s). Join on b after max(1, 1.5) + source 1s = 2.5s, then joint
	// compute 1 Gflop on a... keep simple: join is a transfer back.
	p, cfg := testPlatform(t)
	w := &Workflow{Name: "diamond", Tasks: []Task{
		{ID: "src", Kind: Compute, Host: "a", Flops: 1e9},
		{ID: "left", Kind: TransferData, Src: "a", Dst: "b", Bytes: 100e6, DependsOn: []string{"src"}},
		{ID: "right", Kind: Compute, Host: "b", Flops: 3e9, DependsOn: []string{"src"}},
		{ID: "join", Kind: Compute, Host: "b", Flops: 2e9, DependsOn: []string{"left", "right"}},
	}}
	f, err := Predict(p.Snapshot(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// src ends at 1; left ends 2; right ends 2.5; join runs 1s -> 3.5.
	if math.Abs(f.Makespan-3.5) > 1e-6 {
		t.Errorf("makespan = %v, want 3.5", f.Makespan)
	}
}

func TestPredictUnknownHostFails(t *testing.T) {
	p, cfg := testPlatform(t)
	w := &Workflow{Name: "bad", Tasks: []Task{
		{ID: "t", Kind: Compute, Host: "ghost", Flops: 1e9},
	}}
	if _, err := Predict(p.Snapshot(), cfg, w); err == nil {
		t.Fatal("unknown host accepted")
	}
	// Unknown host in a dependent task (started from the run observer).
	w2 := &Workflow{Name: "bad2", Tasks: []Task{
		{ID: "ok", Kind: Compute, Host: "a", Flops: 1e9},
		{ID: "t", Kind: TransferData, Src: "a", Dst: "ghost", Bytes: 1, DependsOn: []string{"ok"}},
	}}
	if _, err := Predict(p.Snapshot(), cfg, w2); err == nil {
		t.Fatal("unknown dependent host accepted")
	}
}

// TestPredictOnOverlayEpoch: workflows answer against whatever epoch they
// are handed — a degraded link slows the transfer, a failed host rejects
// the compute task with a precise error.
func TestPredictOnOverlayEpoch(t *testing.T) {
	p, cfg := testPlatform(t)
	base := p.Snapshot()
	w := &Workflow{Name: "chain", Tasks: []Task{
		{ID: "move", Kind: TransferData, Src: "a", Dst: "b", Bytes: 500e6},
		{ID: "crunch", Kind: Compute, Host: "b", Flops: 4e9, DependsOn: []string{"move"}},
	}}
	li, ok := base.LinkIndex("l")
	if !ok {
		t.Fatal("missing link")
	}
	degraded, err := base.ApplyOverlay([]platform.OverlayLink{
		{Link: li, Bandwidth: base.LinkBandwidth(li) / 2, Latency: math.NaN()},
	}, nil, "half bandwidth")
	if err != nil {
		t.Fatal(err)
	}
	fBase, err := Predict(base, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	fSlow, err := Predict(degraded, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// move: 5s -> 10s, crunch unchanged at 2s.
	if math.Abs(fBase.Makespan-7) > 1e-6 || math.Abs(fSlow.Makespan-12) > 1e-6 {
		t.Errorf("makespans = %v (base), %v (degraded); want 7, 12", fBase.Makespan, fSlow.Makespan)
	}

	hi, ok := base.HostIndex("b")
	if !ok {
		t.Fatal("missing host")
	}
	failed, err := base.ApplyOverlay(nil, []platform.OverlayHost{{Host: hi, Speed: 0}}, "fail b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Predict(failed, cfg, w); err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("workflow on failed host: err = %v", err)
	}
}

// TestPredictWithBackground: injected cross-traffic halves the transfer's
// share of the link.
func TestPredictWithBackground(t *testing.T) {
	p, cfg := testPlatform(t)
	w := &Workflow{Name: "bg", Tasks: []Task{
		{ID: "move", Kind: TransferData, Src: "a", Dst: "b", Bytes: 500e6},
	}}
	solo, err := Predict(p.Snapshot(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := PredictWithBackground(p.Snapshot(), cfg, w, [][2]string{{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(crowded.Makespan-2*solo.Makespan) > 1e-6 {
		t.Errorf("crowded makespan = %v, want 2x solo %v", crowded.Makespan, solo.Makespan)
	}
	if _, err := PredictWithBackground(p.Snapshot(), cfg, w, [][2]string{{"a", "ghost"}}); err == nil {
		t.Error("unknown background endpoint accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	w := &Workflow{Name: "json", Tasks: []Task{
		{ID: "c", Kind: Compute, Host: "a", Flops: 1e9},
		{ID: "t", Kind: TransferData, Src: "a", Dst: "b", Bytes: 5e8, DependsOn: []string{"c"}},
	}}
	if _, err := w.Validate(); err != nil { // fills KindName
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"transfer"`) {
		t.Errorf("kind not serialized: %s", data)
	}
	var w2 Workflow
	if err := json.Unmarshal(data, &w2); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Validate(); err != nil {
		t.Fatal(err)
	}
	if w2.Tasks[1].Kind != TransferData {
		t.Errorf("kind lost in round trip: %+v", w2.Tasks[1])
	}

	p, cfg := testPlatform(t)
	f1, err := Predict(p.Snapshot(), cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Predict(p.Snapshot(), cfg, &w2)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Makespan != f2.Makespan {
		t.Errorf("makespan changed after JSON round trip: %v vs %v", f1.Makespan, f2.Makespan)
	}
}
