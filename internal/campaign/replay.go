package campaign

import (
	"fmt"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/scenario"
)

// Backend is where a campaign replays: an in-process registry (tests,
// CI, one-shot runs) or a live pilgrimd over the HTTP client. Both see
// the same two verbs the campaign format is built on — feed the
// timeline, evaluate a grid.
type Backend interface {
	// Observe folds one timestamped observation batch into the
	// campaign's platform.
	Observe(t int64, source string, updates []pilgrim.LinkObservation) error
	// Evaluate answers one scenario×query grid.
	Evaluate(req pilgrim.EvaluateRequest) (*pilgrim.EvaluateResponse, error)
	// Snapshot returns the platform's compiled snapshot for static
	// resource checks, or nil when the backend cannot provide one
	// (remote servers).
	Snapshot() *platform.Snapshot
}

// InProcessBackend replays against a pilgrim.Registry in this process.
// Each backend gets fresh evaluate caches so identical campaigns replay
// identically (the golden-file contract); the registry itself carries
// the timeline state the campaign builds up.
type InProcessBackend struct {
	Registry *pilgrim.Registry
	Name     string
	ev       *pilgrim.Evaluator
}

// NewInProcessBackend wraps a registry entry for campaign replay.
func NewInProcessBackend(reg *pilgrim.Registry, name string) *InProcessBackend {
	return &InProcessBackend{
		Registry: reg,
		Name:     name,
		ev: &pilgrim.Evaluator{
			Platforms: reg,
			Cache:     pilgrim.NewForecastCache(pilgrim.DefaultForecastCacheSize),
			Pool:      pilgrim.NewWorkerPool(0),
			Overlays:  pilgrim.NewOverlayCache(pilgrim.DefaultOverlayCacheSize),
		},
	}
}

// Observe implements Backend.
func (b *InProcessBackend) Observe(t int64, source string, updates []pilgrim.LinkObservation) error {
	batch := make([]platform.LinkUpdate, len(updates))
	for i, o := range updates {
		u, err := o.Update()
		if err != nil {
			return fmt.Errorf("observe link %d %q: %w", i, o.Link, err)
		}
		batch[i] = u
	}
	_, err := b.Registry.ObserveLinkState(b.Name, t, source, batch)
	return err
}

// Evaluate implements Backend.
func (b *InProcessBackend) Evaluate(req pilgrim.EvaluateRequest) (*pilgrim.EvaluateResponse, error) {
	return b.ev.Evaluate(b.Name, req)
}

// Snapshot implements Backend.
func (b *InProcessBackend) Snapshot() *platform.Snapshot {
	entry, ok := b.Registry.Get(b.Name)
	if !ok {
		return nil
	}
	return entry.WithSnapshot().Snapshot
}

// RemoteBackend replays against a live pilgrimd through the HTTP
// client: observe events POST update_links, steps POST evaluate. The
// server keeps the timeline, caches, and worker pool.
type RemoteBackend struct {
	Client *pilgrim.Client
	Name   string
}

// NewRemoteBackend addresses the named platform on a pilgrimd server.
func NewRemoteBackend(client *pilgrim.Client, name string) *RemoteBackend {
	return &RemoteBackend{Client: client, Name: name}
}

// Observe implements Backend.
func (b *RemoteBackend) Observe(t int64, source string, updates []pilgrim.LinkObservation) error {
	_, err := b.Client.UpdateLinks(b.Name, pilgrim.UpdateLinksRequest{Time: t, Source: source, Updates: updates})
	return err
}

// Evaluate implements Backend.
func (b *RemoteBackend) Evaluate(req pilgrim.EvaluateRequest) (*pilgrim.EvaluateResponse, error) {
	return b.Client.Evaluate(b.Name, req)
}

// Snapshot implements Backend. Remote platforms cannot be compiled
// locally; resource names are checked by the server at replay time.
func (b *RemoteBackend) Snapshot() *platform.Snapshot { return nil }

// Replay runs the campaign against the backend: events fold into the
// platform timeline at start+at, steps evaluate their grids at their
// instants (so each step sees exactly the observations that precede
// it), and assertions are checked against each answer grid. Persistent
// world changes — failed links and hosts, background traffic — are
// carried forward as scenario mutations prepended to every later
// step's scenarios. The returned report is fully deterministic:
// identical campaigns replay to byte-identical reports.
//
// A backend error (unknown platform, out-of-order observation, HTTP
// failure) aborts the replay; assertion failures never do — they are
// the report's verdicts.
func Replay(c *Campaign, b Backend) (*Report, error) {
	return replay(c, b, false)
}

// ReplaySteps re-evaluates the campaign's steps over a timeline that
// already holds its observations — the restart drill: after a crash, the
// durable store recovers every observe event, so replaying the same
// campaign steps-only against the recovered registry must reproduce each
// step report byte-identically (same epochs pinned at each instant, same
// forecasts, same assertion verdicts). Observe events are skipped (their
// report lines say so); non-observe events — failed links and hosts,
// background traffic — are campaign-local world state the store does not
// hold, and are re-applied.
func ReplaySteps(c *Campaign, b Backend) (*Report, error) {
	return replay(c, b, true)
}

func replay(c *Campaign, b Backend, stepsOnly bool) (*Report, error) {
	rep := &Report{
		Campaign:    c.Name,
		Description: c.Description,
		Platform:    c.Platform.PlatformName(),
		Start:       c.Start,
		Steps:       make([]StepReport, 0, len(c.Steps)),
	}

	// Persistent world state accumulated from events.
	var world []scenario.Mutation

	ei, si := 0, 0
	for ei < len(c.Events) || si < len(c.Steps) {
		// Events replay before steps at the same instant: "at t=30 the
		// switch fails, at t=30 we ask" sees the failure.
		if ei < len(c.Events) && (si >= len(c.Steps) || c.Events[ei].At <= c.Steps[si].At) {
			e := &c.Events[ei]
			ei++
			if stepsOnly && e.Action == ActionObserve {
				rep.Events = append(rep.Events, EventReport{At: e.At, Action: e.Action,
					Detail: fmt.Sprintf("skipped %d links (already in the recovered timeline)", len(e.Links))})
				continue
			}
			detail, err := applyEvent(c, e, b, &world)
			if err != nil {
				return nil, fmt.Errorf("campaign %q: event %d at t=%ds: %w", c.Name, ei-1, e.At, err)
			}
			rep.Events = append(rep.Events, EventReport{At: e.At, Action: e.Action, Detail: detail})
			continue
		}
		s := &c.Steps[si]
		si++
		sr, err := runStep(c, s, b, world)
		if err != nil {
			return nil, fmt.Errorf("campaign %q: step %q at t=%ds: %w", c.Name, s.Name, s.At, err)
		}
		rep.Steps = append(rep.Steps, *sr)
	}
	rep.Summary = summarize(rep)
	return rep, nil
}

// applyEvent replays one event and returns its report detail line.
func applyEvent(c *Campaign, e *Event, b Backend, world *[]scenario.Mutation) (string, error) {
	switch e.Action {
	case ActionObserve:
		source := e.Source
		if source == "" {
			source = "campaign"
		}
		if err := b.Observe(c.Start+e.At, source, e.Links); err != nil {
			return "", err
		}
		return fmt.Sprintf("observed %d links (source %s)", len(e.Links), source), nil
	case ActionFailLink:
		*world = append(*world, scenario.Mutation{Op: scenario.OpFailLink, Link: e.Link})
		return "fail link " + e.Link, nil
	case ActionFailHost:
		*world = append(*world, scenario.Mutation{Op: scenario.OpFailHost, Host: e.Host})
		return "fail host " + e.Host, nil
	case ActionBgTraffic:
		*world = append(*world, scenario.Mutation{Op: scenario.OpBgTraffic, Src: e.Src, Dst: e.Dst, Flows: e.Flows})
		flows := e.Flows
		if flows == 0 {
			flows = 1
		}
		return fmt.Sprintf("bg traffic %s -> %s (%d flows)", e.Src, e.Dst, flows), nil
	default:
		return "", fmt.Errorf("unknown action %q", e.Action)
	}
}

// runStep evaluates one step's grid and checks its assertions.
func runStep(c *Campaign, s *Step, b Backend, world []scenario.Mutation) (*StepReport, error) {
	scenarios := s.Scenarios
	if len(scenarios) == 0 {
		scenarios = []scenario.Scenario{{Name: "baseline"}}
	}
	req := pilgrim.EvaluateRequest{
		At:      c.Start + s.At,
		Queries: s.Queries,
	}
	req.Scenarios = make([]scenario.Scenario, len(scenarios))
	for i := range scenarios {
		sc := scenario.Scenario{Name: scenarios[i].Name}
		// The world happened; every hypothetical starts from it.
		sc.Mutations = append(append([]scenario.Mutation(nil), world...), scenarios[i].Mutations...)
		req.Scenarios[i] = sc
	}
	resp, err := b.Evaluate(req)
	if err != nil {
		return nil, err
	}
	sr := buildStepReport(s, resp)
	sr.Assertions = checkStep(s, resp)
	return sr, nil
}

// CheckResources statically resolves the campaign's resource names
// against a compiled snapshot: event links and hosts, scenario
// mutations, query endpoints, workflow hosts. This is the deep half of
// `pilgrimsim validate` — it catches "renamed the link, forgot the
// drill" without running a single simulation. A nil snapshot (remote
// backends) skips the check.
func (c *Campaign) CheckResources(snap *platform.Snapshot) error {
	if snap == nil {
		return nil
	}
	checkLink := func(name, ctx string) error {
		if _, ok := snap.LinkIndex(name); !ok {
			return fmt.Errorf("campaign %q: %s: unknown link %q", c.Name, ctx, name)
		}
		return nil
	}
	checkHost := func(name, ctx string) error {
		if _, ok := snap.HostIndex(name); !ok {
			return fmt.Errorf("campaign %q: %s: unknown host %q", c.Name, ctx, name)
		}
		return nil
	}
	for i := range c.Events {
		e := &c.Events[i]
		ctx := fmt.Sprintf("event %d (t=%ds)", i, e.At)
		switch e.Action {
		case ActionObserve:
			for _, l := range e.Links {
				if err := checkLink(l.Link, ctx); err != nil {
					return err
				}
			}
		case ActionFailLink:
			if err := checkLink(e.Link, ctx); err != nil {
				return err
			}
		case ActionFailHost:
			if err := checkHost(e.Host, ctx); err != nil {
				return err
			}
		case ActionBgTraffic:
			if err := checkHost(e.Src, ctx); err != nil {
				return err
			}
			if err := checkHost(e.Dst, ctx); err != nil {
				return err
			}
		}
	}
	for si := range c.Steps {
		s := &c.Steps[si]
		ctx := fmt.Sprintf("step %q", s.Name)
		for i := range s.Scenarios {
			sc := &s.Scenarios[i]
			for _, m := range sc.Mutations {
				switch m.Op {
				case scenario.OpScaleLink, scenario.OpSetLink, scenario.OpFailLink:
					if err := checkLink(m.Link, ctx+" scenario "+sc.Name); err != nil {
						return err
					}
				case scenario.OpFailHost:
					if err := checkHost(m.Host, ctx+" scenario "+sc.Name); err != nil {
						return err
					}
				case scenario.OpBgTraffic:
					if err := checkHost(m.Src, ctx+" scenario "+sc.Name); err != nil {
						return err
					}
					if err := checkHost(m.Dst, ctx+" scenario "+sc.Name); err != nil {
						return err
					}
				}
			}
		}
		for qi := range s.Queries {
			q := &s.Queries[qi]
			qctx := fmt.Sprintf("%s query %d", ctx, qi)
			for _, t := range q.Transfers {
				if err := checkHost(t.Src, qctx); err != nil {
					return err
				}
				if err := checkHost(t.Dst, qctx); err != nil {
					return err
				}
			}
			for _, bg := range q.Background {
				if err := checkHost(bg[0], qctx); err != nil {
					return err
				}
				if err := checkHost(bg[1], qctx); err != nil {
					return err
				}
			}
			for _, h := range q.Hypotheses {
				for _, t := range h.Transfers {
					if err := checkHost(t.Src, qctx); err != nil {
						return err
					}
					if err := checkHost(t.Dst, qctx); err != nil {
						return err
					}
				}
			}
			if q.Workflow != nil {
				for _, t := range q.Workflow.Tasks {
					if t.Host != "" {
						if err := checkHost(t.Host, qctx); err != nil {
							return err
						}
					}
					if t.Src != "" {
						if err := checkHost(t.Src, qctx); err != nil {
							return err
						}
					}
					if t.Dst != "" {
						if err := checkHost(t.Dst, qctx); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}
