package campaign

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/scenario"
	"pilgrim/internal/workflow"
)

// DefaultStart is the Unix time a campaign's t=0 maps to when the file
// does not set one. It is a fixed instant — never the wall clock — so
// identical runs replay identical timelines and produce byte-identical
// reports (the golden-file contract).
const DefaultStart int64 = 1735689600 // 2025-01-01T00:00:00Z

// Event actions.
const (
	// ActionObserve folds a timestamped link-state observation batch
	// into the platform timeline ("update_links" is accepted as an
	// alias — it is the HTTP endpoint's name).
	ActionObserve = "observe"
	// ActionFailLink takes a link down for the rest of the campaign:
	// every later step sees it failed (transfers across it error).
	ActionFailLink = "fail_link"
	// ActionFailHost takes a host down for the rest of the campaign.
	ActionFailHost = "fail_host"
	// ActionBgTraffic starts persistent background flows that contend
	// with every query of every later step.
	ActionBgTraffic = "bg_traffic"

	actionUpdateLinks = "update_links"
)

// LinkObservation is one measured link revision inside an observe event.
// Nil fields leave that dimension untouched (the timeline's keep-current
// sentinel).
type LinkObservation struct {
	Link      string   `json:"link"`
	Bandwidth *float64 `json:"bandwidth,omitempty"` // bytes per second
	Latency   *float64 `json:"latency,omitempty"`   // seconds, one way
}

// Event is one timed world change replayed into the platform. Exactly
// one action's field set applies.
type Event struct {
	// At is the event instant as an offset from the campaign start, in
	// whole seconds (the timeline's resolution).
	At int64 `json:"at"`
	// Action is one of the Action* constants.
	Action string `json:"action"`

	// Source and Links describe an observe batch (Source defaults to
	// "campaign").
	Source string            `json:"source,omitempty"`
	Links  []LinkObservation `json:"links,omitempty"`

	// Link / Host name the failed resource (fail_link / fail_host).
	Link string `json:"link,omitempty"`
	Host string `json:"host,omitempty"`

	// Src, Dst, Flows describe injected background traffic.
	Src   string `json:"src,omitempty"`
	Dst   string `json:"dst,omitempty"`
	Flows int    `json:"flows,omitempty"`

	line int
}

// Step is one evaluation instant: a scenario×query grid swept through
// the evaluate machinery, plus the assertions checked against the
// resulting grid.
type Step struct {
	// At is the evaluation instant as an offset from the campaign
	// start. The step evaluates against the platform's epoch at that
	// time — events earlier in the file have been replayed, and an At
	// past the last observation answers against the NWS forecast epoch,
	// exactly like an at=T query.
	At int64 `json:"at"`
	// Name labels the step in reports; defaults to "step-<index>".
	Name string `json:"name,omitempty"`
	// Scenarios are evaluated against the step's epoch; persistent
	// world state (failed resources, background traffic from earlier
	// events) is prepended to each scenario's mutation list. An empty
	// list evaluates one implicit baseline scenario.
	Scenarios []scenario.Scenario `json:"scenarios,omitempty"`
	// Queries are asked of every scenario.
	Queries []pilgrim.EvalQuery `json:"queries"`
	// Assertions are checked against the step's answer grid.
	Assertions []Assertion `json:"assertions,omitempty"`

	line int
}

// PlatformRef names the platform a campaign runs against. In-process
// runs generate it (platgen variant name: g5k_test, g5k_cabinets);
// remote runs address a platform already registered on the server.
type PlatformRef struct {
	// Generate is the platgen variant built for in-process runs.
	Generate string `json:"generate,omitempty"`
	// Name is the registry name the campaign addresses (defaults to
	// Generate).
	Name string `json:"name,omitempty"`
	// Model toggles mirror the pilgrimd flags.
	GammaLatFactor    bool `json:"gamma_latfactor,omitempty"`
	EquipmentLimits   bool `json:"equipment_limits,omitempty"`
	MeasuredLatencies bool `json:"measured_latencies,omitempty"`
}

// PlatformName returns the registry name the campaign addresses.
func (p PlatformRef) PlatformName() string {
	if p.Name != "" {
		return p.Name
	}
	return p.Generate
}

// Campaign is one parsed campaign file: platform, timed events, and
// evaluation steps.
type Campaign struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Platform    PlatformRef `json:"platform"`
	// Start is the Unix time t=0 maps to (DefaultStart when the file
	// omits it). Fixed per file so replays are reproducible.
	Start  int64   `json:"start"`
	Events []Event `json:"events,omitempty"`
	Steps  []Step  `json:"steps"`
}

// Load parses and structurally validates one campaign document.
// Resource names are resolved later, against the platform the campaign
// runs on (Runner.Validate / the replay itself).
func Load(data []byte) (*Campaign, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	c, err := decodeCampaign(root)
	if err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Validate checks the campaign's structure: required fields, known
// actions and query kinds, event/step ordering, assertion shapes.
func (c *Campaign) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("campaign: missing name")
	}
	if c.Platform.Generate == "" && c.Platform.Name == "" {
		return fmt.Errorf("campaign %q: platform needs generate: and/or name:", c.Name)
	}
	if c.Start <= 0 {
		return fmt.Errorf("campaign %q: start must be a positive Unix time", c.Name)
	}
	var prev int64
	for i := range c.Events {
		e := &c.Events[i]
		if err := e.validate(); err != nil {
			return fmt.Errorf("campaign %q: event %d (line %d): %w", c.Name, i, e.line, err)
		}
		if e.At < prev {
			return fmt.Errorf("campaign %q: event %d (line %d): out of order: at=%ds precedes the previous event's %ds",
				c.Name, i, e.line, e.At, prev)
		}
		prev = e.At
	}
	if len(c.Steps) == 0 {
		return fmt.Errorf("campaign %q: no steps", c.Name)
	}
	prev = 0
	for i := range c.Steps {
		s := &c.Steps[i]
		if s.Name == "" {
			s.Name = fmt.Sprintf("step-%d", i)
		}
		if err := s.validate(); err != nil {
			return fmt.Errorf("campaign %q: step %q (line %d): %w", c.Name, s.Name, s.line, err)
		}
		if s.At < prev {
			return fmt.Errorf("campaign %q: step %q (line %d): out of order: at=%ds precedes the previous step's %ds",
				c.Name, s.Name, s.line, s.At, prev)
		}
		prev = s.At
	}
	names := make(map[string]bool, len(c.Steps))
	for i := range c.Steps {
		if names[c.Steps[i].Name] {
			return fmt.Errorf("campaign %q: duplicate step name %q", c.Name, c.Steps[i].Name)
		}
		names[c.Steps[i].Name] = true
	}
	return nil
}

func (e *Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("negative at offset %d", e.At)
	}
	switch e.Action {
	case ActionObserve:
		if len(e.Links) == 0 {
			return fmt.Errorf("observe needs at least one link")
		}
		for i, l := range e.Links {
			if l.Link == "" {
				return fmt.Errorf("observe link %d: missing link name", i)
			}
			if l.Bandwidth == nil && l.Latency == nil {
				return fmt.Errorf("observe link %q: needs bandwidth and/or latency", l.Link)
			}
			if l.Bandwidth != nil && (*l.Bandwidth <= 0 || math.IsNaN(*l.Bandwidth) || math.IsInf(*l.Bandwidth, 0)) {
				return fmt.Errorf("observe link %q: invalid bandwidth %v (observations cannot fail a link; use a fail_link event)", l.Link, *l.Bandwidth)
			}
			if l.Latency != nil && (*l.Latency < 0 || math.IsNaN(*l.Latency) || math.IsInf(*l.Latency, 0)) {
				return fmt.Errorf("observe link %q: invalid latency %v", l.Link, *l.Latency)
			}
		}
	case ActionFailLink:
		if e.Link == "" {
			return fmt.Errorf("fail_link needs link")
		}
	case ActionFailHost:
		if e.Host == "" {
			return fmt.Errorf("fail_host needs host")
		}
	case ActionBgTraffic:
		if e.Src == "" || e.Dst == "" {
			return fmt.Errorf("bg_traffic needs src and dst")
		}
		if e.Src == e.Dst {
			return fmt.Errorf("bg_traffic src equals dst")
		}
		if e.Flows < 0 {
			return fmt.Errorf("bg_traffic invalid flows %d", e.Flows)
		}
	default:
		return fmt.Errorf("unknown action %q", e.Action)
	}
	return nil
}

func (s *Step) validate() error {
	if s.At < 0 {
		return fmt.Errorf("negative at offset %d", s.At)
	}
	for i := range s.Scenarios {
		if err := s.Scenarios[i].Validate(); err != nil {
			return err
		}
	}
	if len(s.Queries) == 0 {
		return fmt.Errorf("no queries")
	}
	for i := range s.Queries {
		if err := validateQuery(&s.Queries[i], i); err != nil {
			return err
		}
	}
	for i := range s.Assertions {
		if err := s.Assertions[i].validate(s); err != nil {
			return fmt.Errorf("assertion %d: %w", i, err)
		}
	}
	return nil
}

// validateQuery mirrors the evaluate endpoint's request checks so
// `pilgrimsim validate` catches shape problems before any replay.
func validateQuery(q *pilgrim.EvalQuery, i int) error {
	switch q.Kind {
	case pilgrim.QueryPredictTransfers:
		if len(q.Transfers) == 0 {
			return fmt.Errorf("query %d: predict_transfers needs transfers", i)
		}
		for _, t := range q.Transfers {
			if t.Src == "" || t.Dst == "" || t.Size <= 0 || math.IsNaN(t.Size) || math.IsInf(t.Size, 0) {
				return fmt.Errorf("query %d: invalid transfer %+v", i, t)
			}
		}
	case pilgrim.QuerySelectFastest:
		if len(q.Hypotheses) == 0 {
			return fmt.Errorf("query %d: select_fastest needs hypotheses", i)
		}
		for hi, h := range q.Hypotheses {
			if len(h.Transfers) == 0 {
				return fmt.Errorf("query %d: hypothesis %d is empty", i, hi)
			}
			for _, t := range h.Transfers {
				if t.Src == "" || t.Dst == "" || t.Size <= 0 || math.IsNaN(t.Size) || math.IsInf(t.Size, 0) {
					return fmt.Errorf("query %d: hypothesis %d: invalid transfer %+v", i, hi, t)
				}
			}
		}
	case pilgrim.QueryPredictWorkflow:
		if q.Workflow == nil {
			return fmt.Errorf("query %d: predict_workflow needs a workflow", i)
		}
		if _, err := q.Workflow.Validate(); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	default:
		return fmt.Errorf("query %d: unknown kind %q", i, q.Kind)
	}
	return nil
}

// ---------------------------------------------------------------------
// Strict decoding: every mapping key must be known, every scalar must
// parse as its field's type, and every error names the source line.

func decodeCampaign(root *node) (*Campaign, error) {
	if err := wantKind(root, mapNode, "campaign document"); err != nil {
		return nil, err
	}
	if err := checkKeys(root, "campaign", "name", "description", "platform", "start", "events", "steps"); err != nil {
		return nil, err
	}
	c := &Campaign{Start: DefaultStart}
	var err error
	if c.Name, err = optString(root, "name"); err != nil {
		return nil, err
	}
	if c.Description, err = optString(root, "description"); err != nil {
		return nil, err
	}
	if p := root.child("platform"); p != nil && !p.isNull() {
		if c.Platform, err = decodePlatformRef(p); err != nil {
			return nil, err
		}
	}
	if s := root.child("start"); s != nil && !s.isNull() {
		if c.Start, err = scalarInt(s, "start"); err != nil {
			return nil, err
		}
	}
	if ev := root.child("events"); ev != nil && !ev.isNull() {
		if err := wantKind(ev, seqNode, "events"); err != nil {
			return nil, err
		}
		for i, item := range ev.items {
			e, err := decodeEvent(item, i)
			if err != nil {
				return nil, err
			}
			c.Events = append(c.Events, *e)
		}
	}
	if st := root.child("steps"); st != nil && !st.isNull() {
		if err := wantKind(st, seqNode, "steps"); err != nil {
			return nil, err
		}
		for i, item := range st.items {
			s, err := decodeStep(item, i)
			if err != nil {
				return nil, err
			}
			c.Steps = append(c.Steps, *s)
		}
	}
	return c, nil
}

func decodePlatformRef(n *node) (PlatformRef, error) {
	var p PlatformRef
	if n.kind == scalarNode {
		// Shorthand: `platform: g5k_test` generates and addresses the
		// variant by the same name.
		p.Generate = n.scalar
		return p, nil
	}
	if err := wantKind(n, mapNode, "platform"); err != nil {
		return p, err
	}
	if err := checkKeys(n, "platform", "generate", "name", "gamma_latfactor", "equipment_limits", "measured_latencies"); err != nil {
		return p, err
	}
	var err error
	if p.Generate, err = optString(n, "generate"); err != nil {
		return p, err
	}
	if p.Name, err = optString(n, "name"); err != nil {
		return p, err
	}
	if p.GammaLatFactor, err = optBool(n, "gamma_latfactor"); err != nil {
		return p, err
	}
	if p.EquipmentLimits, err = optBool(n, "equipment_limits"); err != nil {
		return p, err
	}
	if p.MeasuredLatencies, err = optBool(n, "measured_latencies"); err != nil {
		return p, err
	}
	return p, nil
}

func decodeEvent(n *node, i int) (*Event, error) {
	ctx := fmt.Sprintf("event %d", i)
	if err := wantKind(n, mapNode, ctx); err != nil {
		return nil, err
	}
	if err := checkKeys(n, ctx, "at", "action", "source", "links", "link", "host", "src", "dst", "flows"); err != nil {
		return nil, err
	}
	e := &Event{line: n.line}
	var err error
	if e.At, err = requiredDuration(n, "at", ctx); err != nil {
		return nil, err
	}
	if e.Action, err = optString(n, "action"); err != nil {
		return nil, err
	}
	if e.Action == actionUpdateLinks {
		e.Action = ActionObserve
	}
	if e.Source, err = optString(n, "source"); err != nil {
		return nil, err
	}
	if e.Link, err = optString(n, "link"); err != nil {
		return nil, err
	}
	if e.Host, err = optString(n, "host"); err != nil {
		return nil, err
	}
	if e.Src, err = optString(n, "src"); err != nil {
		return nil, err
	}
	if e.Dst, err = optString(n, "dst"); err != nil {
		return nil, err
	}
	if e.Flows, err = optInt(n, "flows"); err != nil {
		return nil, err
	}
	if links := n.child("links"); links != nil && !links.isNull() {
		if err := wantKind(links, seqNode, ctx+" links"); err != nil {
			return nil, err
		}
		for li, item := range links.items {
			obs, err := decodeLinkObservation(item, fmt.Sprintf("%s link %d", ctx, li))
			if err != nil {
				return nil, err
			}
			e.Links = append(e.Links, obs)
		}
	}
	return e, nil
}

func decodeLinkObservation(n *node, ctx string) (LinkObservation, error) {
	var obs LinkObservation
	if err := wantKind(n, mapNode, ctx); err != nil {
		return obs, err
	}
	if err := checkKeys(n, ctx, "link", "bandwidth", "latency"); err != nil {
		return obs, err
	}
	var err error
	if obs.Link, err = optString(n, "link"); err != nil {
		return obs, err
	}
	if obs.Bandwidth, err = optFloatPtr(n, "bandwidth"); err != nil {
		return obs, err
	}
	if obs.Latency, err = optFloatPtr(n, "latency"); err != nil {
		return obs, err
	}
	return obs, nil
}

func decodeStep(n *node, i int) (*Step, error) {
	ctx := fmt.Sprintf("step %d", i)
	if err := wantKind(n, mapNode, ctx); err != nil {
		return nil, err
	}
	if err := checkKeys(n, ctx, "at", "name", "scenarios", "queries", "assertions"); err != nil {
		return nil, err
	}
	s := &Step{line: n.line}
	var err error
	if s.At, err = requiredDuration(n, "at", ctx); err != nil {
		return nil, err
	}
	if s.Name, err = optString(n, "name"); err != nil {
		return nil, err
	}
	if sc := n.child("scenarios"); sc != nil && !sc.isNull() {
		if err := wantKind(sc, seqNode, ctx+" scenarios"); err != nil {
			return nil, err
		}
		for si, item := range sc.items {
			one, err := decodeScenario(item, fmt.Sprintf("%s scenario %d", ctx, si))
			if err != nil {
				return nil, err
			}
			s.Scenarios = append(s.Scenarios, one)
		}
	}
	if q := n.child("queries"); q != nil && !q.isNull() {
		if err := wantKind(q, seqNode, ctx+" queries"); err != nil {
			return nil, err
		}
		for qi, item := range q.items {
			one, err := decodeQuery(item, fmt.Sprintf("%s query %d", ctx, qi))
			if err != nil {
				return nil, err
			}
			s.Queries = append(s.Queries, one)
		}
	}
	if a := n.child("assertions"); a != nil && !a.isNull() {
		if err := wantKind(a, seqNode, ctx+" assertions"); err != nil {
			return nil, err
		}
		for ai, item := range a.items {
			one, err := decodeAssertion(item, fmt.Sprintf("%s assertion %d", ctx, ai))
			if err != nil {
				return nil, err
			}
			s.Assertions = append(s.Assertions, one)
		}
	}
	return s, nil
}

func decodeScenario(n *node, ctx string) (scenario.Scenario, error) {
	var sc scenario.Scenario
	if err := wantKind(n, mapNode, ctx); err != nil {
		return sc, err
	}
	if err := checkKeys(n, ctx, "name", "mutations"); err != nil {
		return sc, err
	}
	var err error
	if sc.Name, err = optString(n, "name"); err != nil {
		return sc, err
	}
	if m := n.child("mutations"); m != nil && !m.isNull() {
		if err := wantKind(m, seqNode, ctx+" mutations"); err != nil {
			return sc, err
		}
		for mi, item := range m.items {
			mut, err := decodeMutation(item, fmt.Sprintf("%s mutation %d", ctx, mi))
			if err != nil {
				return sc, err
			}
			sc.Mutations = append(sc.Mutations, mut)
		}
	}
	return sc, nil
}

func decodeMutation(n *node, ctx string) (scenario.Mutation, error) {
	var m scenario.Mutation
	if err := wantKind(n, mapNode, ctx); err != nil {
		return m, err
	}
	if err := checkKeys(n, ctx, "op", "link", "host", "bandwidth_factor", "latency_factor",
		"bandwidth", "latency", "src", "dst", "flows", "time"); err != nil {
		return m, err
	}
	op, err := optString(n, "op")
	if err != nil {
		return m, err
	}
	m.Op = scenario.Op(op)
	if m.Link, err = optString(n, "link"); err != nil {
		return m, err
	}
	if m.Host, err = optString(n, "host"); err != nil {
		return m, err
	}
	if m.BandwidthFactor, err = optFloat(n, "bandwidth_factor"); err != nil {
		return m, err
	}
	if m.LatencyFactor, err = optFloat(n, "latency_factor"); err != nil {
		return m, err
	}
	if m.Bandwidth, err = optFloatPtr(n, "bandwidth"); err != nil {
		return m, err
	}
	if m.Latency, err = optFloatPtr(n, "latency"); err != nil {
		return m, err
	}
	if m.Src, err = optString(n, "src"); err != nil {
		return m, err
	}
	if m.Dst, err = optString(n, "dst"); err != nil {
		return m, err
	}
	if m.Flows, err = optInt(n, "flows"); err != nil {
		return m, err
	}
	if m.Time, err = optInt64(n, "time"); err != nil {
		return m, err
	}
	return m, nil
}

func decodeQuery(n *node, ctx string) (pilgrim.EvalQuery, error) {
	var q pilgrim.EvalQuery
	if err := wantKind(n, mapNode, ctx); err != nil {
		return q, err
	}
	if err := checkKeys(n, ctx, "kind", "transfers", "bg", "hypotheses", "workflow"); err != nil {
		return q, err
	}
	var err error
	if q.Kind, err = optString(n, "kind"); err != nil {
		return q, err
	}
	if t := n.child("transfers"); t != nil && !t.isNull() {
		if q.Transfers, err = decodeTransfers(t, ctx+" transfers"); err != nil {
			return q, err
		}
	}
	if bg := n.child("bg"); bg != nil && !bg.isNull() {
		if q.Background, err = decodeFlows(bg, ctx+" bg"); err != nil {
			return q, err
		}
	}
	if h := n.child("hypotheses"); h != nil && !h.isNull() {
		if err := wantKind(h, seqNode, ctx+" hypotheses"); err != nil {
			return q, err
		}
		for hi, item := range h.items {
			hctx := fmt.Sprintf("%s hypothesis %d", ctx, hi)
			if err := wantKind(item, mapNode, hctx); err != nil {
				return q, err
			}
			if err := checkKeys(item, hctx, "transfers"); err != nil {
				return q, err
			}
			var hyp pilgrim.Hypothesis
			if t := item.child("transfers"); t != nil && !t.isNull() {
				if hyp.Transfers, err = decodeTransfers(t, hctx+" transfers"); err != nil {
					return q, err
				}
			}
			q.Hypotheses = append(q.Hypotheses, hyp)
		}
	}
	if w := n.child("workflow"); w != nil && !w.isNull() {
		if q.Workflow, err = decodeWorkflow(w, ctx+" workflow"); err != nil {
			return q, err
		}
	}
	return q, nil
}

func decodeTransfers(n *node, ctx string) ([]pilgrim.TransferRequest, error) {
	if err := wantKind(n, seqNode, ctx); err != nil {
		return nil, err
	}
	out := make([]pilgrim.TransferRequest, 0, len(n.items))
	for i, item := range n.items {
		tctx := fmt.Sprintf("%s %d", ctx, i)
		if err := wantKind(item, mapNode, tctx); err != nil {
			return nil, err
		}
		if err := checkKeys(item, tctx, "src", "dst", "size"); err != nil {
			return nil, err
		}
		var t pilgrim.TransferRequest
		var err error
		if t.Src, err = optString(item, "src"); err != nil {
			return nil, err
		}
		if t.Dst, err = optString(item, "dst"); err != nil {
			return nil, err
		}
		if t.Size, err = optFloat(item, "size"); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// decodeFlows decodes a background-flow list: items are {src: A, dst: B}
// mappings.
func decodeFlows(n *node, ctx string) ([][2]string, error) {
	if err := wantKind(n, seqNode, ctx); err != nil {
		return nil, err
	}
	out := make([][2]string, 0, len(n.items))
	for i, item := range n.items {
		fctx := fmt.Sprintf("%s %d", ctx, i)
		if err := wantKind(item, mapNode, fctx); err != nil {
			return nil, err
		}
		if err := checkKeys(item, fctx, "src", "dst"); err != nil {
			return nil, err
		}
		src, err := optString(item, "src")
		if err != nil {
			return nil, err
		}
		dst, err := optString(item, "dst")
		if err != nil {
			return nil, err
		}
		if src == "" || dst == "" {
			return nil, parseErrf(item.line, "%s: needs src and dst", fctx)
		}
		out = append(out, [2]string{src, dst})
	}
	return out, nil
}

func decodeWorkflow(n *node, ctx string) (*workflow.Workflow, error) {
	if err := wantKind(n, mapNode, ctx); err != nil {
		return nil, err
	}
	if err := checkKeys(n, ctx, "name", "tasks"); err != nil {
		return nil, err
	}
	w := &workflow.Workflow{}
	var err error
	if w.Name, err = optString(n, "name"); err != nil {
		return nil, err
	}
	tasks := n.child("tasks")
	if tasks == nil || tasks.isNull() {
		return nil, parseErrf(n.line, "%s: needs tasks", ctx)
	}
	if err := wantKind(tasks, seqNode, ctx+" tasks"); err != nil {
		return nil, err
	}
	for ti, item := range tasks.items {
		tctx := fmt.Sprintf("%s task %d", ctx, ti)
		if err := wantKind(item, mapNode, tctx); err != nil {
			return nil, err
		}
		if err := checkKeys(item, tctx, "id", "kind", "host", "flops", "src", "dst", "bytes", "depends_on"); err != nil {
			return nil, err
		}
		var t workflow.Task
		if t.ID, err = optString(item, "id"); err != nil {
			return nil, err
		}
		if t.KindName, err = optString(item, "kind"); err != nil {
			return nil, err
		}
		if t.Host, err = optString(item, "host"); err != nil {
			return nil, err
		}
		if t.Flops, err = optFloat(item, "flops"); err != nil {
			return nil, err
		}
		if t.Src, err = optString(item, "src"); err != nil {
			return nil, err
		}
		if t.Dst, err = optString(item, "dst"); err != nil {
			return nil, err
		}
		if t.Bytes, err = optFloat(item, "bytes"); err != nil {
			return nil, err
		}
		if deps := item.child("depends_on"); deps != nil && !deps.isNull() {
			if err := wantKind(deps, seqNode, tctx+" depends_on"); err != nil {
				return nil, err
			}
			for _, d := range deps.items {
				if d.kind != scalarNode {
					return nil, parseErrf(d.line, "%s depends_on: entries must be task ids", tctx)
				}
				t.DependsOn = append(t.DependsOn, d.scalar)
			}
		}
		w.Tasks = append(w.Tasks, t)
	}
	return w, nil
}

// ---------------------------------------------------------------------
// Typed scalar accessors. All errors carry the source line.

func wantKind(n *node, kind nodeKind, ctx string) error {
	if n == nil {
		return parseErrf(0, "%s: missing", ctx)
	}
	if n.kind != kind {
		return parseErrf(n.line, "%s: expected a %s, got a %s", ctx, kind, n.kind)
	}
	return nil
}

// checkKeys rejects unknown mapping keys — strict decoding catches
// typos ("asertions") instead of silently ignoring them.
func checkKeys(n *node, ctx string, allowed ...string) error {
	for _, k := range n.keys {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			return parseErrf(n.vals[k].line, "%s: unknown field %q (known: %v)", ctx, k, allowed)
		}
	}
	return nil
}

func optString(n *node, key string) (string, error) {
	c := n.child(key)
	if c == nil || c.isNull() {
		return "", nil
	}
	if c.kind != scalarNode {
		return "", parseErrf(c.line, "%s: expected a string, got a %s", key, c.kind)
	}
	return c.scalar, nil
}

func optBool(n *node, key string) (bool, error) {
	c := n.child(key)
	if c == nil || c.isNull() {
		return false, nil
	}
	if c.kind != scalarNode {
		return false, parseErrf(c.line, "%s: expected a boolean, got a %s", key, c.kind)
	}
	switch c.scalar {
	case "true", "True", "TRUE", "yes", "on":
		return true, nil
	case "false", "False", "FALSE", "no", "off":
		return false, nil
	}
	return false, parseErrf(c.line, "%s: invalid boolean %q", key, c.scalar)
}

func scalarFloat(c *node, key string) (float64, error) {
	if c.kind != scalarNode {
		return 0, parseErrf(c.line, "%s: expected a number, got a %s", key, c.kind)
	}
	v, err := strconv.ParseFloat(c.scalar, 64)
	if err != nil {
		return 0, parseErrf(c.line, "%s: invalid number %q", key, c.scalar)
	}
	return v, nil
}

func optFloat(n *node, key string) (float64, error) {
	c := n.child(key)
	if c == nil || c.isNull() {
		return 0, nil
	}
	return scalarFloat(c, key)
}

func optFloatPtr(n *node, key string) (*float64, error) {
	c := n.child(key)
	if c == nil || c.isNull() {
		return nil, nil
	}
	v, err := scalarFloat(c, key)
	if err != nil {
		return nil, err
	}
	return &v, nil
}

func scalarInt(c *node, key string) (int64, error) {
	if c.kind != scalarNode {
		return 0, parseErrf(c.line, "%s: expected an integer, got a %s", key, c.kind)
	}
	v, err := strconv.ParseInt(c.scalar, 10, 64)
	if err != nil {
		return 0, parseErrf(c.line, "%s: invalid integer %q", key, c.scalar)
	}
	return v, nil
}

func optInt(n *node, key string) (int, error) {
	c := n.child(key)
	if c == nil || c.isNull() {
		return 0, nil
	}
	v, err := scalarInt(c, key)
	if err != nil {
		return 0, err
	}
	if v != int64(int(v)) {
		return 0, parseErrf(c.line, "%s: integer %d out of range", key, v)
	}
	return int(v), nil
}

func optInt64(n *node, key string) (int64, error) {
	c := n.child(key)
	if c == nil || c.isNull() {
		return 0, nil
	}
	return scalarInt(c, key)
}

// requiredDuration parses an `at:` offset: a bare number is whole
// seconds, otherwise a Go duration string ("90s", "2m30s"). The
// timeline's resolution is one second, so fractional seconds are
// rejected rather than silently rounded.
func requiredDuration(n *node, key, ctx string) (int64, error) {
	c := n.child(key)
	if c == nil || c.isNull() {
		return 0, parseErrf(n.line, "%s: missing %s", ctx, key)
	}
	if c.kind != scalarNode {
		return 0, parseErrf(c.line, "%s: expected a duration, got a %s", key, c.kind)
	}
	if secs, err := strconv.ParseInt(c.scalar, 10, 64); err == nil {
		return secs, nil
	}
	d, err := time.ParseDuration(c.scalar)
	if err != nil {
		return 0, parseErrf(c.line, "%s: invalid duration %q", key, c.scalar)
	}
	if d%time.Second != 0 {
		return 0, parseErrf(c.line, "%s: duration %q is not a whole number of seconds (timeline resolution)", key, c.scalar)
	}
	return int64(d / time.Second), nil
}
