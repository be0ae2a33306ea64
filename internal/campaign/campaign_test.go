package campaign

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"pilgrim/internal/scenario"
)

// minimalDoc is a structurally complete campaign exercising most of the
// YAML surface: comments, compact maps, flow sequences, quoted scalars,
// duration strings, the update_links alias, and every event kind.
const minimalDoc = `# drill
name: parse-me
description: "parser coverage: quotes, flows, durations"
platform:
  generate: g5k_mini
  name: mini
start: 1735689600
events:
  - at: 5
    action: update_links
    source: 'iperf'
    links:
      - {link: sagittaire-1.lyon.grid5000.fr_nic, bandwidth: 1.0e8, latency: 1.0e-4}
  - at: 1m
    action: bg_traffic
    src: graphene-1.nancy.grid5000.fr
    dst: graphene-5.nancy.grid5000.fr
    flows: 2
  - at: 2m
    action: fail_link
    link: sagittaire-2.lyon.grid5000.fr_nic
  - at: 3m
    action: fail_host
    host: sagittaire-6.lyon.grid5000.fr
steps:
  - at: 90
    name: mid
    scenarios:
      - name: baseline
      - name: slow
        mutations:
          - {op: scale_link, link: sagittaire-1.lyon.grid5000.fr_nic, bandwidth_factor: 0.5}
    queries:
      - kind: predict_transfers
        transfers:
          - {src: sagittaire-1.lyon.grid5000.fr, dst: graphene-1.nancy.grid5000.fr, size: 1.0e8}
    assertions:
      - {type: bound, scenario: baseline, min: 0.01, max: 600}
      - {type: delta, scenario: slow, against: baseline, min_factor: 1.0, tolerance: {abs: 0.1, rel: 0.01}}
`

func TestLoadMinimalDoc(t *testing.T) {
	c, err := Load([]byte(minimalDoc))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "parse-me" || c.Platform.Generate != "g5k_mini" || c.Platform.PlatformName() != "mini" {
		t.Errorf("header = %+v", c)
	}
	if len(c.Events) != 4 || len(c.Steps) != 1 {
		t.Fatalf("events=%d steps=%d", len(c.Events), len(c.Steps))
	}
	if c.Events[0].Action != ActionObserve {
		t.Errorf("update_links alias not normalized: %q", c.Events[0].Action)
	}
	if c.Events[1].At != 60 || c.Events[3].At != 180 {
		t.Errorf("duration strings: at=%d,%d", c.Events[1].At, c.Events[3].At)
	}
	if got := c.Events[0].Links[0]; got.Link == "" || got.Bandwidth == nil || *got.Bandwidth != 1.0e8 || *got.Latency != 1.0e-4 {
		t.Errorf("link observation = %+v", got)
	}
	s := c.Steps[0]
	if len(s.Scenarios) != 2 || s.Scenarios[1].Mutations[0].Op != scenario.OpScaleLink {
		t.Errorf("scenarios = %+v", s.Scenarios)
	}
	if len(s.Assertions) != 2 || s.Assertions[1].Tol.Abs != 0.1 || s.Assertions[1].Tol.Rel != 0.01 {
		t.Errorf("assertions = %+v", s.Assertions)
	}
}

// TestLoadRejects is the structured-error table: every malformed
// document must fail with a message naming the problem (and never
// panic — the fuzz target extends this).
func TestLoadRejects(t *testing.T) {
	valid := minimalDoc
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"empty document", "", "empty"},
		{"tab indentation", "name: x\n\tplatform: y\n", "tab"},
		{"unknown top-level field", "name: x\nplatfrom: g5k_mini\n", `"platfrom"`},
		{"duplicate key", "name: x\nname: y\nplatform: g5k_mini\n", "duplicate"},
		{"missing name", "platform: g5k_mini\nsteps:\n  - at: 1\n    queries:\n      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}\n", "name"},
		{"missing steps", "name: x\nplatform: g5k_mini\n", "step"},
		{"negative start", strings.Replace(valid, "start: 1735689600", "start: -5", 1), "start"},
		{"malformed timestamp", strings.Replace(valid, "at: 5\n", "at: tomorrow\n", 1), "tomorrow"},
		{"fractional timestamp", strings.Replace(valid, "at: 5\n", "at: 1500ms\n", 1), "whole number of seconds"},
		{"negative timestamp", strings.Replace(valid, "at: 5\n", "at: -3\n", 1), "negative"},
		{"unknown event action", strings.Replace(valid, "action: update_links", "action: teleport", 1), "teleport"},
		{"out-of-order events", strings.Replace(valid, "at: 3m\n", "at: 90\n", 1), "out of order"},
		{"observe without links", "name: x\nplatform: g5k_mini\nevents:\n  - at: 1\n    action: observe\nsteps:\n  - at: 2\n    queries:\n      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}\n", "at least one link"},
		{"observation failing a link", strings.Replace(valid, "bandwidth: 1.0e8", "bandwidth: 0", 1), "fail_link"},
		{"unknown query kind", strings.Replace(valid, "kind: predict_transfers", "kind: guess", 1), "guess"},
		{"unknown mutation op", strings.Replace(valid, "op: scale_link", "op: smash", 1), "smash"},
		{"assertion against unknown scenario", strings.Replace(valid, "against: baseline", "against: ghost", 1), "ghost"},
		{"bound without limits", strings.Replace(valid, "type: bound, scenario: baseline, min: 0.01, max: 600", "type: bound, scenario: baseline", 1), "min"},
		{"negative tolerance", strings.Replace(valid, "abs: 0.1", "abs: -0.1", 1), "tolerance"},
		{"yaml anchors unsupported", "name: &x y\nplatform: g5k_mini\n", "anchor"},
		{"block scalars unsupported", "name: |\n  x\nplatform: g5k_mini\n", "block scalar"},
		{"unterminated quote", "name: \"x\nplatform: g5k_mini\n", "quote"},
		{"unterminated flow", "name: x\nplatform: g5k_mini\nsteps: [\n", "flow"},
		{"scalar where sequence expected", "name: x\nplatform: g5k_mini\nsteps: yes\n", "expected a sequence"},
		{"flow with src but no dst", strings.Replace(valid, "size: 1.0e8}\n", "size: 1.0e8}\n        bg: [{src: graphene-2.nancy.grid5000.fr}]\n", 1), "needs src and dst"},
		{"tolerance given as a list", strings.Replace(valid, "tolerance: {abs: 0.1, rel: 0.01}", "tolerance: [0.1, 0.01]", 1), "tolerance"},
		{"invalid boolean", strings.Replace(valid, "  name: mini\n", "  name: mini\n  gamma_latfactor: maybe\n", 1), `invalid boolean "maybe"`},
		{"overflowing flows", strings.Replace(valid, "flows: 2", "flows: 99999999999999999999", 1), "flows"},
		{"non-scalar at", strings.Replace(valid, "at: 5\n", "at: [5]\n", 1), "expected a duration"},
		{"unknown key in a mutation", strings.Replace(valid, "bandwidth_factor: 0.5}", "bandwidth_factor: 0.5, speed: 2}", 1), `"speed"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted malformed document:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseErrorsCarryLines: parse errors from deep in a document name
// the offending source line.
func TestParseErrorsCarryLines(t *testing.T) {
	doc := "name: x\nplatform: g5k_mini\nsteps:\n  - at: 1\n    queries:\n      - kind: guess\n"
	_, err := Load([]byte(doc))
	if err == nil {
		t.Fatal("accepted document with unknown query kind")
	}
	if !strings.Contains(err.Error(), "guess") {
		t.Errorf("error %q does not name the bad kind", err)
	}
	// A syntax-level error carries the 1-based source line.
	_, err = Load([]byte("name: x\nplatform: g5k_mini\nsteps:\n  - at: &anchor 1\n"))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *ParseError", err)
	}
	if pe.Line != 4 {
		t.Errorf("ParseError.Line = %d, want 4", pe.Line)
	}
}

// TestStepDefaults: unnamed steps get positional names; a step without
// scenarios validates assertions against the implicit baseline.
func TestStepDefaults(t *testing.T) {
	doc := `name: x
platform: g5k_mini
steps:
  - at: 1
    queries:
      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}
    assertions:
      - {type: bound, scenario: baseline, max: 10}
  - at: 2
    queries:
      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}
`
	c, err := Load([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if c.Steps[0].Name != "step-0" || c.Steps[1].Name != "step-1" {
		t.Errorf("default step names: %q, %q", c.Steps[0].Name, c.Steps[1].Name)
	}
	if c.Start != DefaultStart {
		t.Errorf("default start = %d", c.Start)
	}
}

// TestCampaignFieldsFollowJSONTags generates, from the json tags alone, a
// document that sets every tagged field of every type a campaign reaches,
// and checks that each field lands non-zero. It names no field, so a
// tagged field added later is covered with no edit here.
func TestCampaignFieldsFollowJSONTags(t *testing.T) {
	var doc strings.Builder
	writeSample(t, &doc, reflect.TypeOf(Campaign{}))
	root, err := parseYAML([]byte(doc.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, doc.String())
	}
	var c Campaign
	if err := decode(root, reflect.ValueOf(&c).Elem(), "campaign"); err != nil {
		t.Fatalf("%v\n%s", err, doc.String())
	}
	types := map[reflect.Type]bool{}
	requireAllSet(t, reflect.ValueOf(c), "campaign", types)
	t.Logf("%d types, every tagged field set", len(types))
}

// taggedFields returns t's fields that carry a json name.
func taggedFields(t reflect.Type) (fields []reflect.StructField, names []string) {
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			fields = append(fields, t.Field(i))
			names = append(names, name)
		}
	}
	return fields, names
}

// writeSample writes a flow-style YAML value of type t, non-zero in
// every tagged field.
func writeSample(t *testing.T, b *strings.Builder, typ reflect.Type) {
	switch typ.Kind() {
	case reflect.Struct:
		fields, names := taggedFields(typ)
		b.WriteString("{")
		for i, f := range fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(names[i] + ": ")
			writeSample(t, b, f.Type)
		}
		b.WriteString("}")
	case reflect.Slice:
		b.WriteString("[")
		writeSample(t, b, typ.Elem())
		b.WriteString("]")
	case reflect.Array: // a [2]string background flow
		b.WriteString("{src: a, dst: b}")
	case reflect.Pointer:
		writeSample(t, b, typ.Elem())
	case reflect.String:
		b.WriteString("x")
	case reflect.Bool:
		b.WriteString("true")
	case reflect.Int, reflect.Int64:
		b.WriteString("1")
	case reflect.Float64:
		b.WriteString("1.5")
	default:
		t.Fatalf("no sample for a %s field", typ)
	}
}

// requireAllSet fails for every tagged field of v, or of a value v
// reaches, left zero.
func requireAllSet(t *testing.T, v reflect.Value, path string, types map[reflect.Type]bool) {
	switch v.Kind() {
	case reflect.Struct:
		types[v.Type()] = true
		fields, names := taggedFields(v.Type())
		for i, f := range fields {
			fv := v.FieldByIndex(f.Index)
			if fv.IsZero() {
				t.Errorf("%s.%s: not decoded", path, names[i])
				continue
			}
			requireAllSet(t, fv, path+"."+names[i], types)
		}
	case reflect.Slice:
		requireAllSet(t, v.Index(0), path+"[0]", types)
	case reflect.Pointer:
		requireAllSet(t, v.Elem(), path, types)
	}
}
