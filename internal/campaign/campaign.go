package campaign

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
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
	c := &Campaign{Start: DefaultStart}
	if err := decode(root, reflect.ValueOf(c).Elem(), "campaign"); err != nil {
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
// Strict decoding. A campaign's field names are the json tags of the
// types it fills in — its own and the evaluate API's — read by
// reflection, so a tagged field is decodable with no other edit. Every
// mapping key must name a field, every scalar must parse as its field's
// type, and every error is a *ParseError naming the source line.

// decode fills v from n; path names v in error messages. A null mapping
// value leaves its field as it was; sequence items and the document root
// have no null form.
func decode(n *node, v reflect.Value, path string) error {
	// The campaign-only spellings the JSON form lacks.
	switch p := v.Addr().Interface().(type) {
	case *PlatformRef:
		if n.kind == scalarNode {
			// `platform: g5k_test` generates and addresses the variant by
			// the same name.
			p.Generate = n.scalar
			return nil
		}
	case *Tolerance:
		if n.kind == scalarNode {
			// `tolerance: 0.5` is an absolute band.
			return decode(n, reflect.ValueOf(&p.Abs).Elem(), path)
		}
	case *[2]string:
		// A background flow is a {src, dst} mapping.
		var f struct {
			Src string `json:"src"`
			Dst string `json:"dst"`
		}
		if err := decode(n, reflect.ValueOf(&f).Elem(), path); err != nil {
			return err
		}
		if f.Src == "" || f.Dst == "" {
			return parseErrf(n.line, "%s: needs src and dst", path)
		}
		*p = [2]string{f.Src, f.Dst}
		return nil
	}
	switch v.Kind() {
	case reflect.Struct:
		return decodeStruct(n, v, path)
	case reflect.Slice:
		if n.kind != seqNode {
			return parseErrf(n.line, "%s: expected a sequence, got a %s", path, n.kind)
		}
		if len(n.items) > 0 {
			v.Set(reflect.MakeSlice(v.Type(), len(n.items), len(n.items)))
		}
		for i, item := range n.items {
			if err := decode(item, v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		return decode(n, v.Elem(), path)
	}
	return decodeScalar(n, v, path)
}

// decodeStruct fills a struct from a mapping keyed by its json names.
func decodeStruct(n *node, v reflect.Value, path string) error {
	if n.kind != mapNode {
		return parseErrf(n.line, "%s: expected a mapping, got a %s", path, n.kind)
	}
	names, index := jsonFields(v.Type())
	for _, k := range n.keys {
		c := n.vals[k]
		i, ok := index[k]
		if !ok {
			return parseErrf(c.line, "%s: unknown field %q (known: %v)", path, k, names)
		}
		if c.isNull() {
			continue
		}
		f, fpath := v.Field(i), path+"."+k
		if k == "at" {
			// An event's or a step's instant.
			secs, err := offset(c, fpath)
			if err != nil {
				return err
			}
			f.SetInt(secs)
		} else if err := decode(c, f, fpath); err != nil {
			return err
		}
	}
	// What a decoded value keeps of its source, and the keys it may not
	// leave out.
	switch p := v.Addr().Interface().(type) {
	case *Event:
		p.line = n.line
		if p.Action == actionUpdateLinks {
			p.Action = ActionObserve
		}
		return require(n, "at", path)
	case *Step:
		p.line = n.line
		return require(n, "at", path)
	case *Assertion:
		p.line = n.line
	case *workflow.Workflow:
		return require(n, "tasks", path)
	}
	return nil
}

// jsonFields lists t's json names in declaration order and maps each to
// its field index. Unexported and `json:"-"` fields have none.
func jsonFields(t reflect.Type) ([]string, map[string]int) {
	var names []string
	index := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		names = append(names, name)
		index[name] = i
	}
	return names, index
}

// scalarKinds says what a scalar field of each supported kind expects.
var scalarKinds = map[reflect.Kind]string{
	reflect.String:  "a string",
	reflect.Bool:    "a boolean",
	reflect.Int:     "an integer",
	reflect.Int64:   "an integer",
	reflect.Float64: "a number",
}

func decodeScalar(n *node, v reflect.Value, path string) error {
	want, ok := scalarKinds[v.Kind()]
	if !ok {
		return parseErrf(n.line, "%s: cannot decode into %s", path, v.Type())
	}
	if n.kind != scalarNode {
		return parseErrf(n.line, "%s: expected %s, got a %s", path, want, n.kind)
	}
	s := n.scalar
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		switch s {
		case "true", "True", "TRUE", "yes", "on":
			v.SetBool(true)
		case "false", "False", "FALSE", "no", "off":
			v.SetBool(false)
		default:
			return parseErrf(n.line, "%s: invalid boolean %q", path, s)
		}
	case reflect.Int, reflect.Int64:
		x, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return parseErrf(n.line, "%s: invalid integer %q", path, s)
		}
		if v.OverflowInt(x) {
			return parseErrf(n.line, "%s: integer %d out of range", path, x)
		}
		v.SetInt(x)
	case reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return parseErrf(n.line, "%s: invalid number %q", path, s)
		}
		v.SetFloat(x)
	}
	return nil
}

// require rejects a mapping that leaves key out or null.
func require(n *node, key, path string) error {
	if c := n.child(key); c == nil || c.isNull() {
		return parseErrf(n.line, "%s: missing %s", path, key)
	}
	return nil
}

// offset parses an `at:` instant: a bare integer is whole seconds,
// otherwise a Go duration string ("90s", "2m30s"). The timeline's
// resolution is one second, so fractional seconds are rejected rather
// than silently rounded.
func offset(c *node, path string) (int64, error) {
	if c.kind != scalarNode {
		return 0, parseErrf(c.line, "%s: expected a duration, got a %s", path, c.kind)
	}
	if secs, err := strconv.ParseInt(c.scalar, 10, 64); err == nil {
		return secs, nil
	}
	d, err := time.ParseDuration(c.scalar)
	if err != nil {
		return 0, parseErrf(c.line, "%s: invalid duration %q", path, c.scalar)
	}
	if d%time.Second != 0 {
		return 0, parseErrf(c.line, "%s: duration %q is not a whole number of seconds (timeline resolution)", path, c.scalar)
	}
	return int64(d / time.Second), nil
}
