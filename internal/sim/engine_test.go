package sim

import (
	"math"
	"testing"

	"pilgrim/internal/platform"
)

func TestResharingsCounted(t *testing.T) {
	p := buildPair(t, 100e6, 0)
	e := NewEngineSnapshot(p.Snapshot(), DefaultConfig())
	if _, err := e.AddComm("a", "b", 1e6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	if e.SharingStats().Resharings == 0 {
		t.Error("no sharing recomputation recorded")
	}
}

func TestSharingStatsIncremental(t *testing.T) {
	// Two transfers on disjoint host pairs are independent components:
	// when one completes, re-solving must touch only its own component,
	// not the survivor.
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	for _, h := range []string{"a", "b", "c", "d"} {
		as.AddHost(h, 1e9)
	}
	l1, _ := as.AddLink("l1", 100e6, 0, platform.Shared)
	l2, _ := as.AddLink("l2", 50e6, 0, platform.Shared)
	as.AddRoute("a", "b", []platform.LinkUse{{Link: l1, Direction: platform.None}}, true)
	as.AddRoute("c", "d", []platform.LinkUse{{Link: l2, Direction: platform.None}}, true)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	e := NewEngineSnapshot(p.Snapshot(), cfg)
	// Same size, but the c->d link is half as fast: a->b finishes first.
	if _, err := e.AddComm("a", "b", 92e6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddComm("c", "d", 92e6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	st := e.SharingStats()
	// Initial solve touches both flows (2); the a->b completion re-solves
	// only the empty remainder of its component plus nothing of c->d's.
	if st.VariablesTouched >= st.Resharings*2 {
		t.Errorf("VariablesTouched = %d over %d resharings: not incremental",
			st.VariablesTouched, st.Resharings)
	}
	if st.VariablesTouched < 2 {
		t.Errorf("VariablesTouched = %d, want >= 2", st.VariablesTouched)
	}
}

// A completion is a removal-only change of the sharing problem, so the
// resharing after it resumes: a flow fixed at an earlier bottleneck than
// the departed one is kept, not re-filled, and SharingStats says so.
func TestSharingStatsWarmResolve(t *testing.T) {
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	for _, h := range []string{"a", "b", "c"} {
		as.AddHost(h, 1e9)
	}
	slow, _ := as.AddLink("slow", 10e6, 0, platform.Shared)
	trunk, _ := as.AddLink("trunk", 100e6, 0, platform.Shared)
	as.AddRoute("a", "c", []platform.LinkUse{{Link: slow, Direction: platform.None}, {Link: trunk, Direction: platform.None}}, true)
	as.AddRoute("b", "c", []platform.LinkUse{{Link: trunk, Direction: platform.None}}, true)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	e := NewEngineSnapshot(p.Snapshot(), cfg)
	// a->c saturates the slow link first and is fixed there; the two b->c
	// transfers then split what is left of the trunk. The small one
	// completes first.
	for _, tr := range []struct {
		src  string
		size float64
	}{{"a", 1e9}, {"b", 1e9}, {"b", 1e8}} {
		if _, err := e.AddComm(tr.src, "c", tr.size, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	st := e.SharingStats()
	if st.WarmSolves == 0 || st.VariablesKept == 0 {
		t.Errorf("no resumed resharing recorded: %+v", st)
	}
	if st.Rounds == 0 || st.WarmSolves >= st.Resharings {
		t.Errorf("implausible solver statistics: %+v", st)
	}
	// First resharing fills all three; after the small transfer leaves
	// only the other b->c flow is re-filled (a->c is kept); after that one
	// leaves nothing on the trunk is unfixed.
	if st.VariablesTouched != 4 {
		t.Errorf("VariablesTouched = %d, want 4: %+v", st.VariablesTouched, st)
	}
}

func TestEngineNowAdvances(t *testing.T) {
	p := buildPair(t, 100e6, 0)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	e := NewEngineSnapshot(p.Snapshot(), cfg)
	if e.Now() != 0 {
		t.Fatalf("initial now = %v", e.Now())
	}
	if _, err := e.AddComm("a", "b", 92e6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Now()-1) > 1e-9 {
		t.Errorf("final now = %v, want 1", e.Now())
	}
}

func TestLatencyPhaseDelaysSharing(t *testing.T) {
	// Flow A starts at t=0 with zero latency; flow B has a long latency
	// phase. While B is in latency, A must run at full capacity.
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	as.AddHost("a", 1e9)
	as.AddHost("b", 1e9)
	as.AddHost("c", 1e9)
	fast, _ := as.AddLink("fast", 100e6, 0, platform.Shared)
	slow, _ := as.AddLink("slow", 100e6, 10e-3, platform.Shared)
	as.AddRoute("a", "b", []platform.LinkUse{{Link: fast, Direction: platform.None}}, true)
	as.AddRoute("c", "b", []platform.LinkUse{{Link: slow, Direction: platform.None}, {Link: fast, Direction: platform.None}}, true)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	cfg.LatencyFactor = 10 // slow path latency phase = 0.1s

	// A transfers 9.2e6 bytes: exactly 0.1s at full 92e6 B/s — it must
	// finish just as B's latency phase ends, never sharing.
	res, err := Predict(p.Snapshot(), cfg, []Transfer{
		{Src: "a", Dst: "b", Size: 9.2e6},
		{Src: "c", Dst: "b", Size: 9.2e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Duration-0.1) > 1e-9 {
		t.Errorf("A duration = %v, want 0.1 (no contention during B's latency)", res[0].Duration)
	}
	// B: 0.1s latency + 0.1s data at full rate (A already done).
	if math.Abs(res[1].Duration-0.2) > 1e-9 {
		t.Errorf("B duration = %v, want 0.2", res[1].Duration)
	}
}

func TestEngineMixedCommExec(t *testing.T) {
	// A computation and a communication share nothing: both take their
	// standalone durations concurrently.
	p := buildPair(t, 100e6, 0)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	e := NewEngineSnapshot(p.Snapshot(), cfg)
	comm, err := e.AddComm("a", "b", 92e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := e.AddExec("a", 2e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	_, commEnd := e.Done(comm)
	_, execEnd := e.Done(exec)
	if math.Abs(commEnd-1) > 1e-9 {
		t.Errorf("comm end = %v, want 1", commEnd)
	}
	if math.Abs(execEnd-2) > 1e-9 {
		t.Errorf("exec end = %v, want 2", execEnd)
	}
}

func TestActivityAddedMidRun(t *testing.T) {
	// The run observer schedules a follow-up activity when the first one
	// completes (the workflow pattern); the engine must pick it up and
	// complete it, and report it to the observer too.
	p := buildPair(t, 100e6, 0)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	cfg.LatencyFactor = 1
	e := NewEngineSnapshot(p.Snapshot(), cfg)
	first, err := e.AddComm("a", "b", 92e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	second := ActivityID(-1)
	var secondEnd float64
	n, err := e.RunToCompletion(func(id ActivityID) error {
		switch id {
		case first:
			var err error
			second, err = e.AddComm("b", "a", 92e6, e.Now())
			return err
		case second:
			secondEnd = e.Now()
		}
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("run: %d completions, err %v", n, err)
	}
	if math.Abs(secondEnd-2) > 1e-9 {
		t.Errorf("chained completion = %v, want 2", secondEnd)
	}
}

func TestDoneQueries(t *testing.T) {
	p := buildPair(t, 100e6, 0)
	e := NewEngineSnapshot(p.Snapshot(), DefaultConfig())
	id, err := e.AddComm("a", "b", 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done, _ := e.Done(id); done {
		t.Error("done before running")
	}
	if _, err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	done, at := e.Done(id)
	if !done || at <= 0 {
		t.Errorf("done = %v at %v", done, at)
	}
	if done, _ := e.Done(9999); done {
		t.Error("unknown activity reported done")
	}
}

func TestZeroCapacityStallDetected(t *testing.T) {
	// A transfer over a link that exists but was modeled with ~zero
	// usable bandwidth must fail loudly, not hang.
	p := platform.New("root", platform.RoutingFull)
	as := p.Root()
	as.AddHost("a", 1e9)
	as.AddHost("b", 1e9)
	l, err := as.AddLink("dead", 1e-30, 0, platform.Shared)
	if err != nil {
		t.Fatal(err)
	}
	as.AddRoute("a", "b", []platform.LinkUse{{Link: l, Direction: platform.None}}, true)
	cfg := DefaultConfig()
	cfg.TCPGamma = 0
	_, err = Predict(p.Snapshot(), cfg, []Transfer{{Src: "a", Dst: "b", Size: 1e9}})
	// Either an explicit stall error or an astronomically long duration
	// is acceptable; silence/hang is not. Predict returning is the test.
	_ = err
}
