package campaign

import (
	"errors"
	"strings"
	"testing"
)

// FuzzLoad asserts the parser's only failure mode is a structured
// error: no panic, no accepted-but-inconsistent campaign. Seeds cover
// the full happy path plus each syntax family the parser rejects
// (tabs, anchors, block scalars, unterminated quotes/flows, malformed
// timestamps, unknown event kinds, out-of-order events).
func FuzzLoad(f *testing.F) {
	f.Add(minimalDoc)
	f.Add(raceDoc)
	f.Add("")
	f.Add("name: x\nplatform: g5k_mini\nsteps:\n  - at: 1\n    queries:\n      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}\n")
	f.Add("name: x\n\tplatform: y\n")
	f.Add("name: &a x\n")
	f.Add("name: |\n  x\n")
	f.Add("name: \"unterminated\n")
	f.Add("steps: [{at: 1}\n")
	f.Add("events:\n  - at: tomorrow\n    action: observe\n")
	f.Add("events:\n  - at: 1500ms\n    action: observe\n")
	f.Add("events:\n  - at: -3\n    action: observe\n")
	f.Add("events:\n  - at: 9\n    action: teleport\n")
	f.Add("events:\n  - at: 9\n    action: observe\n  - at: 3\n    action: observe\n")
	f.Add("steps:\n  - at: 1\n    queries:\n      - kind: guess\n")
	f.Add("a: {b: [1, {c: d}, 'e']}\nf:\n  - g: h\n")
	f.Add("x: 1.0e8\ny: -5\nz: null\nw: true\n")
	// The campaign-only shorthands: a scalar platform, a scalar
	// tolerance, a duration instant, the update_links alias, and a
	// {src, dst} background flow.
	const step = "steps:\n  - at: 1\n    queries:\n      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}\n"
	f.Add("name: x\nplatform: g5k_cabinets\n" + step)
	f.Add("name: x\nplatform: g5k_mini\n" + step + "    assertions:\n      - {type: bound, max: 9, tolerance: 0.5}\n")
	f.Add("name: x\nplatform: g5k_mini\nsteps:\n  - at: 2m30s\n    queries:\n      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}]}\n")
	f.Add("name: x\nplatform: g5k_mini\nevents:\n  - {at: 1, action: update_links, links: [{link: l, bandwidth: 5}]}\n" + step)
	f.Add("name: x\nplatform: g5k_mini\nsteps:\n  - at: 1\n    queries:\n      - {kind: predict_transfers, transfers: [{src: a, dst: b, size: 1}], bg: [{src: a, dst: c}]}\n")

	f.Fuzz(func(t *testing.T, doc string) {
		c, err := Load([]byte(doc))
		if err != nil {
			if c != nil {
				t.Errorf("Load returned both a campaign and error %v", err)
			}
			// Structured errors only: a ParseError wrapping, or a
			// validation error with a non-empty message.
			if err.Error() == "" {
				t.Error("error with empty message")
			}
			var pe *ParseError
			if errors.As(err, &pe) && pe.Line < 0 {
				t.Errorf("ParseError with negative line %d", pe.Line)
			}
			return
		}
		// An accepted campaign must satisfy the documented invariants the
		// replayer depends on.
		if c.Name == "" {
			t.Error("accepted campaign without a name")
		}
		if strings.TrimSpace(c.Platform.PlatformName()) == "" {
			t.Error("accepted campaign without a platform name")
		}
		if len(c.Steps) == 0 {
			t.Error("accepted campaign without steps")
		}
		if c.Start < 0 {
			t.Errorf("accepted negative start %d", c.Start)
		}
		for i := 1; i < len(c.Events); i++ {
			if c.Events[i].At < c.Events[i-1].At {
				t.Errorf("accepted out-of-order events: %d after %d", c.Events[i].At, c.Events[i-1].At)
			}
		}
		for _, e := range c.Events {
			if e.At < 0 {
				t.Errorf("accepted negative event time %d", e.At)
			}
			switch e.Action {
			case ActionObserve, ActionFailLink, ActionFailHost, ActionBgTraffic:
			default:
				t.Errorf("accepted unknown event action %q", e.Action)
			}
		}
		for _, s := range c.Steps {
			if s.At < 0 {
				t.Errorf("accepted negative step time %d", s.At)
			}
			if len(s.Queries) == 0 {
				t.Errorf("accepted step %q without queries", s.Name)
			}
		}
	})
}
