package campaign

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pilgrim/internal/pilgrim"
)

// Assertion types.
const (
	// AssertBound checks min <= metric <= max (either side optional).
	AssertBound = "bound"
	// AssertEq checks metric == value within the tolerance.
	AssertEq = "eq"
	// AssertDelta compares a scenario's metric against another
	// scenario's in the same step (max_factor / min_factor /
	// max_increase) — "the degraded forecast is at most 3x baseline".
	AssertDelta = "delta"
	// AssertSelection checks which hypothesis select_fastest picked.
	AssertSelection = "selection"
	// AssertError expects the cell (or the whole scenario) to fail —
	// the way failure drills pin "this transfer is now unreachable".
	AssertError = "error"
)

// Metric names.
const (
	// MetricMakespan is the default: completion time of the whole cell
	// (max transfer duration / best-hypothesis makespan / workflow
	// makespan).
	MetricMakespan = "makespan"
	// MetricDuration is one transfer's duration (predict_transfers;
	// transfer: selects the index).
	MetricDuration = "duration"
	// MetricTaskFinish is one workflow task's finish time (task:
	// selects the id).
	MetricTaskFinish = "task_finish"
)

// Tolerance widens a comparison: |observed - reference| may exceed the
// exact bound by Abs + Rel*|reference|. The zero Tolerance is exact.
type Tolerance struct {
	Abs float64 `json:"abs,omitempty"`
	Rel float64 `json:"rel,omitempty"`
}

// slack is the allowed overshoot around reference ref. Non-finite
// references contribute no relative slack (Inf*0 traps, and a relative
// band around infinity is meaningless).
func (tol Tolerance) slack(ref float64) float64 {
	s := tol.Abs
	if tol.Rel > 0 && !math.IsInf(ref, 0) && !math.IsNaN(ref) {
		s += tol.Rel * math.Abs(ref)
	}
	return s
}

// withinTolerance reports |obs - want| <= slack(want). NaN on either
// side never passes — an assertion touching NaN data must fail loudly,
// not vacuously. Infinities pass only on exact equality (same sign).
func (tol Tolerance) withinTolerance(obs, want float64) bool {
	if math.IsNaN(obs) || math.IsNaN(want) {
		return false
	}
	if math.IsInf(obs, 0) || math.IsInf(want, 0) {
		return obs == want
	}
	return math.Abs(obs-want) <= tol.slack(want)
}

// atMost reports obs <= bound + slack(bound). NaN obs fails; an
// infinite +bound passes everything, an infinite -bound nothing.
func (tol Tolerance) atMost(obs, bound float64) bool {
	if math.IsNaN(obs) || math.IsNaN(bound) {
		return false
	}
	if math.IsInf(bound, +1) || math.IsInf(obs, -1) {
		return true
	}
	if math.IsInf(bound, -1) || math.IsInf(obs, +1) {
		return false
	}
	return obs <= bound+tol.slack(bound)
}

// atLeast reports obs >= bound - slack(bound), with the mirrored
// non-finite rules.
func (tol Tolerance) atLeast(obs, bound float64) bool {
	if math.IsNaN(obs) || math.IsNaN(bound) {
		return false
	}
	if math.IsInf(bound, -1) || math.IsInf(obs, +1) {
		return true
	}
	if math.IsInf(bound, +1) || math.IsInf(obs, -1) {
		return false
	}
	return obs >= bound-tol.slack(bound)
}

// Assertion is one expectation checked against a step's answer grid.
type Assertion struct {
	// Type is one of the Assert* constants.
	Type string `json:"type"`
	// Scenario names the scenario row the assertion reads (default:
	// the step's first scenario).
	Scenario string `json:"scenario,omitempty"`
	// Query is the index into the step's query list (default 0).
	Query int `json:"query"`
	// Metric selects what is measured (default makespan). Transfer
	// picks the duration index; Task picks the task_finish task id;
	// Hypothesis pins a select_fastest makespan to one hypothesis
	// instead of the winner.
	Metric     string `json:"metric,omitempty"`
	Transfer   int    `json:"transfer,omitempty"`
	Task       string `json:"task,omitempty"`
	Hypothesis *int   `json:"hypothesis,omitempty"`

	// Bound / Eq parameters.
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
	Value *float64 `json:"value,omitempty"`

	// Delta parameters: the comparison row and the accepted envelope.
	Against     string   `json:"against,omitempty"`
	MaxFactor   *float64 `json:"max_factor,omitempty"`
	MinFactor   *float64 `json:"min_factor,omitempty"`
	MaxIncrease *float64 `json:"max_increase,omitempty"`

	// Selection parameter.
	Best *int `json:"best,omitempty"`

	// Error parameter: required substring of the cell/scenario error
	// (empty = any error).
	Contains string `json:"contains,omitempty"`

	// Tol widens bound/eq/delta comparisons.
	Tol Tolerance `json:"tolerance,omitempty"`

	line int
}

// validate checks the assertion against its step's shape (query index,
// scenario names, metric/type compatibility).
func (a *Assertion) validate(s *Step) error {
	if a.Query < 0 || a.Query >= len(s.Queries) {
		return fmt.Errorf("query index %d out of range (step has %d queries)", a.Query, len(s.Queries))
	}
	kind := s.Queries[a.Query].Kind
	findScenario := func(name string) error {
		if name == "" {
			return nil
		}
		if len(s.Scenarios) == 0 {
			if name == "baseline" {
				return nil
			}
			return fmt.Errorf("unknown scenario %q (step has only the implicit baseline)", name)
		}
		for i := range s.Scenarios {
			if s.Scenarios[i].Name == name {
				return nil
			}
		}
		return fmt.Errorf("unknown scenario %q", name)
	}
	if err := findScenario(a.Scenario); err != nil {
		return err
	}
	if a.Metric == "" {
		a.Metric = MetricMakespan
	}
	switch a.Metric {
	case MetricMakespan:
	case MetricDuration:
		if kind != pilgrim.QueryPredictTransfers {
			return fmt.Errorf("metric %q needs a predict_transfers query (query %d is %s)", a.Metric, a.Query, kind)
		}
		if a.Transfer < 0 || a.Transfer >= len(s.Queries[a.Query].Transfers) {
			return fmt.Errorf("transfer index %d out of range (query %d has %d transfers)",
				a.Transfer, a.Query, len(s.Queries[a.Query].Transfers))
		}
	case MetricTaskFinish:
		if kind != pilgrim.QueryPredictWorkflow {
			return fmt.Errorf("metric %q needs a predict_workflow query (query %d is %s)", a.Metric, a.Query, kind)
		}
		if a.Task == "" {
			return fmt.Errorf("metric %q needs task:", a.Metric)
		}
	default:
		return fmt.Errorf("unknown metric %q", a.Metric)
	}
	if a.Hypothesis != nil {
		if kind != pilgrim.QuerySelectFastest {
			return fmt.Errorf("hypothesis: needs a select_fastest query (query %d is %s)", a.Query, kind)
		}
		if *a.Hypothesis < 0 || *a.Hypothesis >= len(s.Queries[a.Query].Hypotheses) {
			return fmt.Errorf("hypothesis index %d out of range", *a.Hypothesis)
		}
	}
	if a.Tol.Abs < 0 || math.IsNaN(a.Tol.Abs) || a.Tol.Rel < 0 || math.IsNaN(a.Tol.Rel) {
		return fmt.Errorf("invalid tolerance (abs=%v rel=%v)", a.Tol.Abs, a.Tol.Rel)
	}
	switch a.Type {
	case AssertBound:
		if a.Min == nil && a.Max == nil {
			return fmt.Errorf("bound needs min: and/or max:")
		}
	case AssertEq:
		if a.Value == nil {
			return fmt.Errorf("eq needs value:")
		}
	case AssertDelta:
		if a.Against == "" {
			return fmt.Errorf("delta needs against:")
		}
		if err := findScenario(a.Against); err != nil {
			return err
		}
		if a.MaxFactor == nil && a.MinFactor == nil && a.MaxIncrease == nil {
			return fmt.Errorf("delta needs max_factor:, min_factor: and/or max_increase:")
		}
	case AssertSelection:
		if kind != pilgrim.QuerySelectFastest {
			return fmt.Errorf("selection needs a select_fastest query (query %d is %s)", a.Query, kind)
		}
		if a.Best == nil {
			return fmt.Errorf("selection needs best:")
		}
		if *a.Best < 0 || *a.Best >= len(s.Queries[a.Query].Hypotheses) {
			return fmt.Errorf("best index %d out of range", *a.Best)
		}
	case AssertError:
		// Contains is optional.
	default:
		return fmt.Errorf("unknown assertion type %q", a.Type)
	}
	return nil
}

// Describe renders the assertion as one deterministic clause for
// reports, e.g. `bound(baseline/q0/duration[0]) <= 80`.
func (a *Assertion) Describe() string {
	target := a.Scenario
	if target == "" {
		target = "<first>"
	}
	metric := a.Metric
	switch a.Metric {
	case MetricDuration:
		metric = fmt.Sprintf("duration[%d]", a.Transfer)
	case MetricTaskFinish:
		metric = fmt.Sprintf("task_finish[%s]", a.Task)
	case MetricMakespan:
		if a.Hypothesis != nil {
			metric = fmt.Sprintf("makespan[hyp %d]", *a.Hypothesis)
		}
	}
	head := fmt.Sprintf("%s(%s/q%d/%s)", a.Type, target, a.Query, metric)
	var clauses []string
	if a.Min != nil {
		clauses = append(clauses, ">= "+formatValue(*a.Min))
	}
	if a.Max != nil {
		clauses = append(clauses, "<= "+formatValue(*a.Max))
	}
	if a.Value != nil {
		clauses = append(clauses, "== "+formatValue(*a.Value))
	}
	if a.Type == AssertDelta {
		if a.MaxFactor != nil {
			clauses = append(clauses, fmt.Sprintf("<= %s x %s", formatValue(*a.MaxFactor), a.Against))
		}
		if a.MinFactor != nil {
			clauses = append(clauses, fmt.Sprintf(">= %s x %s", formatValue(*a.MinFactor), a.Against))
		}
		if a.MaxIncrease != nil {
			clauses = append(clauses, fmt.Sprintf("<= %s + %s", a.Against, formatValue(*a.MaxIncrease)))
		}
	}
	if a.Best != nil {
		clauses = append(clauses, fmt.Sprintf("best == %d", *a.Best))
	}
	if a.Type == AssertError {
		if a.Contains != "" {
			clauses = append(clauses, fmt.Sprintf("error contains %q", a.Contains))
		} else {
			clauses = append(clauses, "errors")
		}
	}
	return head + " " + strings.Join(clauses, ", ")
}

// AssertionResult is one checked assertion: its clause, the observed
// value, and the verdict. Observed is a rendered value ("12.34",
// "best=1", an error excerpt) so reports read without the grid.
type AssertionResult struct {
	Index    int    `json:"index"`
	Desc     string `json:"desc"`
	Passed   bool   `json:"passed"`
	Observed string `json:"observed"`
	// Detail explains a failure (missing row, metric extraction
	// problem, which clause tripped).
	Detail string `json:"detail,omitempty"`
}

// formatValue renders a float deterministically (shortest round-trip
// form, matching encoding/json).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// checkStep evaluates every assertion of a step against its grid.
func checkStep(s *Step, resp *pilgrim.EvaluateResponse) []AssertionResult {
	out := make([]AssertionResult, len(s.Assertions))
	for i := range s.Assertions {
		a := &s.Assertions[i]
		res := a.check(resp)
		res.Index = i
		res.Desc = a.Describe()
		out[i] = res
	}
	return out
}

// scenarioRow finds the named scenario's row ("" = first row).
func scenarioRow(resp *pilgrim.EvaluateResponse, name string) *pilgrim.ScenarioResult {
	if name == "" {
		if len(resp.Scenarios) > 0 {
			return &resp.Scenarios[0]
		}
		return nil
	}
	for i := range resp.Scenarios {
		if resp.Scenarios[i].Name == name {
			return &resp.Scenarios[i]
		}
	}
	return nil
}

func (a *Assertion) check(resp *pilgrim.EvaluateResponse) AssertionResult {
	row := scenarioRow(resp, a.Scenario)
	if row == nil {
		return AssertionResult{Detail: fmt.Sprintf("scenario %q missing from the answer grid", a.Scenario)}
	}

	if a.Type == AssertError {
		return a.checkError(row)
	}

	if row.Error != "" {
		return AssertionResult{Observed: "scenario error", Detail: row.Error}
	}
	if a.Query >= len(row.Results) {
		return AssertionResult{Detail: fmt.Sprintf("query %d missing from scenario %q results", a.Query, row.Name)}
	}
	cell := &row.Results[a.Query]
	if cell.Error != "" {
		return AssertionResult{Observed: "cell error", Detail: cell.Error}
	}

	if a.Type == AssertSelection {
		if cell.Best == nil {
			return AssertionResult{Detail: "cell carries no selection (not a select_fastest answer?)"}
		}
		got := *cell.Best
		res := AssertionResult{Observed: fmt.Sprintf("best=%d", got), Passed: got == *a.Best}
		if !res.Passed {
			res.Detail = fmt.Sprintf("expected hypothesis %d, got %d (makespan %s)",
				*a.Best, got, formatValue(cell.Hypotheses[got].Makespan))
		}
		return res
	}

	obs, err := a.metricOf(cell)
	if err != nil {
		return AssertionResult{Detail: err.Error()}
	}
	res := AssertionResult{Observed: formatValue(obs)}

	switch a.Type {
	case AssertBound:
		if a.Min != nil && !a.Tol.atLeast(obs, *a.Min) {
			res.Detail = fmt.Sprintf("%s < min %s", formatValue(obs), formatValue(*a.Min))
			return res
		}
		if a.Max != nil && !a.Tol.atMost(obs, *a.Max) {
			res.Detail = fmt.Sprintf("%s > max %s", formatValue(obs), formatValue(*a.Max))
			return res
		}
		res.Passed = true
	case AssertEq:
		if !a.Tol.withinTolerance(obs, *a.Value) {
			res.Detail = fmt.Sprintf("%s != %s (tolerance abs=%s rel=%s)",
				formatValue(obs), formatValue(*a.Value), formatValue(a.Tol.Abs), formatValue(a.Tol.Rel))
			return res
		}
		res.Passed = true
	case AssertDelta:
		against := scenarioRow(resp, a.Against)
		if against == nil {
			res.Detail = fmt.Sprintf("scenario %q missing from the answer grid", a.Against)
			return res
		}
		if against.Error != "" {
			res.Detail = fmt.Sprintf("against scenario %q errored: %s", a.Against, against.Error)
			return res
		}
		if a.Query >= len(against.Results) || against.Results[a.Query].Error != "" {
			res.Detail = fmt.Sprintf("against scenario %q query %d unavailable", a.Against, a.Query)
			return res
		}
		ref, err := a.metricOf(&against.Results[a.Query])
		if err != nil {
			res.Detail = fmt.Sprintf("against scenario %q: %v", a.Against, err)
			return res
		}
		res.Observed = fmt.Sprintf("%s vs %s", formatValue(obs), formatValue(ref))
		if a.MaxFactor != nil && !a.Tol.atMost(obs, *a.MaxFactor*ref) {
			res.Detail = fmt.Sprintf("%s > %s x %s", formatValue(obs), formatValue(*a.MaxFactor), formatValue(ref))
			return res
		}
		if a.MinFactor != nil && !a.Tol.atLeast(obs, *a.MinFactor*ref) {
			res.Detail = fmt.Sprintf("%s < %s x %s", formatValue(obs), formatValue(*a.MinFactor), formatValue(ref))
			return res
		}
		if a.MaxIncrease != nil && !a.Tol.atMost(obs, ref+*a.MaxIncrease) {
			res.Detail = fmt.Sprintf("%s > %s + %s", formatValue(obs), formatValue(ref), formatValue(*a.MaxIncrease))
			return res
		}
		res.Passed = true
	}
	return res
}

// checkError expects the targeted cell (or the scenario itself) to have
// failed.
func (a *Assertion) checkError(row *pilgrim.ScenarioResult) AssertionResult {
	msg := row.Error
	if msg == "" && a.Query < len(row.Results) {
		msg = row.Results[a.Query].Error
	}
	if msg == "" {
		return AssertionResult{Observed: "no error", Detail: "expected the cell to fail, but it answered"}
	}
	res := AssertionResult{Observed: "error: " + firstLine(msg)}
	if a.Contains != "" && !strings.Contains(msg, a.Contains) {
		res.Detail = fmt.Sprintf("error does not contain %q: %s", a.Contains, firstLine(msg))
		return res
	}
	res.Passed = true
	return res
}

// metricOf extracts the assertion's metric from one answered cell.
func (a *Assertion) metricOf(cell *pilgrim.EvalResult) (float64, error) {
	switch a.Metric {
	case MetricDuration:
		if a.Transfer >= len(cell.Predictions) {
			return 0, fmt.Errorf("transfer %d missing from the answer (cell has %d predictions)", a.Transfer, len(cell.Predictions))
		}
		return cell.Predictions[a.Transfer].Duration, nil
	case MetricTaskFinish:
		if cell.Forecast == nil {
			return 0, fmt.Errorf("cell carries no workflow forecast")
		}
		for _, t := range cell.Forecast.Tasks {
			if t.ID == a.Task {
				return t.Finish, nil
			}
		}
		return 0, fmt.Errorf("task %q missing from the workflow forecast", a.Task)
	case MetricMakespan:
		switch {
		case cell.Forecast != nil:
			return cell.Forecast.Makespan, nil
		case cell.Hypotheses != nil:
			hi := -1
			if a.Hypothesis != nil {
				hi = *a.Hypothesis
			} else if cell.Best != nil {
				hi = *cell.Best
			}
			if hi < 0 || hi >= len(cell.Hypotheses) {
				return 0, fmt.Errorf("hypothesis %d missing from the answer", hi)
			}
			return cell.Hypotheses[hi].Makespan, nil
		case cell.Predictions != nil:
			makespan := 0.0
			for _, p := range cell.Predictions {
				if p.Duration > makespan {
					makespan = p.Duration
				}
			}
			return makespan, nil
		default:
			return 0, fmt.Errorf("cell carries no result to measure")
		}
	default:
		return 0, fmt.Errorf("unknown metric %q", a.Metric)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
