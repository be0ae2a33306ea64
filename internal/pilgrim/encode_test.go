package pilgrim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pilgrim/internal/workflow"
)

// legacyBytes renders v exactly as writeJSON does: the byte-identity
// reference for every hot encoder.
func legacyBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("legacy encode: %v", err)
	}
	return buf.Bytes()
}

func hotPredictionBytes(preds []Prediction) ([]byte, bool) {
	e := getEnc()
	defer putEnc(e)
	e.predictions(preds, 0)
	e.raw("\n")
	return append([]byte(nil), e.buf...), e.fallback
}

// awkwardStrings exercise every escaping branch: HTML trio, control
// bytes, named escapes, invalid UTF-8, U+2028/U+2029, multibyte runes.
var awkwardStrings = []string{
	"",
	"plain-host.lyon.grid5000.fr",
	`<script>&"back\slash"</script>`,
	"tab\there\nnewline\rcr\x00nul\x1funit",
	"\b\f",
	"invalid\xff\xfeutf8",
	"line\u2028para\u2029sep",
	"héllo wörld — ünïcode",
	strings.Repeat("x", 300) + "\"",
}

// awkwardFloats exercise both float formats and the exponent cleanup.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 5e8, 1e21, 1e22, -1e21,
	9.999999999999999e20, 1e-6, 9.9e-7, 1e-7, -2.5e-9, 1e-100, 1e100,
	123456.789, math.MaxFloat64, math.SmallestNonzeroFloat64, 3.14159265358979,
}

func TestHotPredictionsMatchEncodingJSON(t *testing.T) {
	cases := [][]Prediction{
		nil,
		{},
		{{Src: "a", Dst: "b", Size: 5e8, Duration: 12.25}},
	}
	var mixed []Prediction
	for i, s := range awkwardStrings {
		mixed = append(mixed, Prediction{
			Src:      s,
			Dst:      awkwardStrings[len(awkwardStrings)-1-i],
			Size:     awkwardFloats[i%len(awkwardFloats)],
			Duration: awkwardFloats[(i*7)%len(awkwardFloats)],
		})
	}
	cases = append(cases, mixed)
	for _, f := range awkwardFloats {
		cases = append(cases, []Prediction{{Src: "s", Dst: "d", Size: f, Duration: -f}})
	}
	for i, preds := range cases {
		got, fallback := hotPredictionBytes(preds)
		if fallback {
			t.Errorf("case %d: unexpected fallback", i)
			continue
		}
		if want := legacyBytes(t, preds); !bytes.Equal(got, want) {
			t.Errorf("case %d: hot encoder diverged\nhot:    %q\nlegacy: %q", i, got, want)
		}
	}
}

func TestHotPredictionsNonFiniteFallsBack(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, fallback := hotPredictionBytes([]Prediction{{Src: "s", Dst: "d", Size: f}})
		if !fallback {
			t.Errorf("float %v: fallback flag not set", f)
		}
	}
}

func TestHotSelectFastestMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		best    int
		results []HypothesisResult
	}{
		{0, nil},
		{0, []HypothesisResult{}},
		{1, []HypothesisResult{
			{Index: 0, Makespan: 4.5, Predictions: []Prediction{{Src: "a", Dst: "b", Size: 1e9, Duration: 4.5}}},
			{Index: 1, Makespan: 2.25, Predictions: nil},
			{Index: 2, Makespan: 0, Predictions: []Prediction{}},
		}},
	}
	for i, c := range cases {
		e := getEnc()
		e.selectFastestResponse(c.best, c.results)
		got := append([]byte(nil), e.buf...)
		fallback := e.fallback
		putEnc(e)
		if fallback {
			t.Errorf("case %d: unexpected fallback", i)
			continue
		}
		want := legacyBytes(t, selectFastestResponse{Best: c.best, Results: c.results})
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: hot encoder diverged\nhot:    %q\nlegacy: %q", i, got, want)
		}
	}
}

// question builds one answer to the n-transfer question q: durations vary
// with seed, (src, dst, size) only with q.
func question(q string, n int, seed float64) []Prediction {
	preds := make([]Prediction, n)
	for i := range preds {
		preds[i] = Prediction{
			Src:      q + "-src-" + awkwardStrings[i%len(awkwardStrings)],
			Dst:      q + "-dst",
			Size:     5e8 + float64(i),
			Duration: awkwardFloats[(i+int(seed))%len(awkwardFloats)] + seed/3,
		}
	}
	return preds
}

func predictionRows(answers ...[]Prediction) []ScenarioResult {
	rows := make([]ScenarioResult, len(answers))
	for i, a := range answers {
		rows[i] = ScenarioResult{Name: "sc", Epoch: uint64(i + 1), Results: []EvalResult{{Predictions: a}}}
	}
	return rows
}

// gridResponses are the shapes the row template (hotEnc.predictions) must
// not get wrong: one question under many pictures, with answers shared,
// re-asked, interleaved with other questions, and nearly-but-not-quite the
// same question.
func gridResponses() []*EvaluateResponse {
	base := question("q", 30, 0)
	fork1, fork2, cold := question("q", 30, 1), question("q", 30, 2), question("q", 30, 3)
	grown := question("q", 30, 4)
	grown[17].Size++ // one size differs mid-row: not the same question
	renamed := question("q", 30, 5)
	renamed[29].Dst = "elsewhere"
	negZero := question("z", 2, 0)
	posZero := question("z", 2, 1)
	negZero[1].Size, posZero[1].Size = math.Copysign(0, -1), 0
	hyps := func(seed float64) []HypothesisResult {
		return []HypothesisResult{
			{Index: 0, Makespan: 3 + seed, Predictions: question("h0", 4, seed)},
			{Index: 1, Makespan: 2 + seed, Predictions: question("h1", 4, seed)},
			{Index: 2, Makespan: 4 + seed, Predictions: question("h0", 4, seed+1)},
		}
	}
	best := 1
	return []*EvaluateResponse{
		// The bench shape: baseline and three reuse rows share one slice,
		// three forks and a cold row answer the same question afresh.
		{Platform: "p", Scenarios: predictionRows(base, base, base, base, fork1, fork2, fork1, cold)},
		// A reuse row between two fork rows, and near-miss questions: the
		// template must not leak across differing sizes or names.
		{Platform: "p", Scenarios: predictionRows(fork1, base, grown, fork2, renamed, base, base[:29], base)},
		{Platform: "p", Scenarios: predictionRows(negZero, posZero, negZero)},
		// Rows with cell errors and failed scenarios between answers.
		{Platform: "p", Scenarios: []ScenarioResult{
			{Name: "a", Epoch: 1, Results: []EvalResult{{Predictions: base}}},
			{Name: "b", Epoch: 2, Results: []EvalResult{{Error: "no route <x>"}}},
			{Name: "c", Error: "unknown link"},
			{Name: "d", Epoch: 3, Results: []EvalResult{{Predictions: fork1}}},
		}},
		// A row whose tail carries the buffer past the flush threshold: the
		// template's bytes leave with it, and the next row starts over them.
		{Platform: "p", Scenarios: []ScenarioResult{
			{Name: "a", Epoch: 1, Results: []EvalResult{{Predictions: negZero}, {Error: strings.Repeat("e", evalFlushThreshold)}}},
			{Name: strings.Repeat("b", 300), Epoch: 2, Results: []EvalResult{{Predictions: negZero}, {Predictions: posZero}}},
		}},
		// Two queries sharing transfers (one row asks the question twice),
		// then a select_fastest grid: hypotheses sit two levels deeper.
		{Platform: "p", Scenarios: []ScenarioResult{
			{Name: "a", Epoch: 1, Results: []EvalResult{{Predictions: base}, {Predictions: base}, {Best: &best, Hypotheses: hyps(0)}}},
			{Name: "b", Epoch: 2, Results: []EvalResult{{Predictions: fork1}, {Predictions: fork2}, {Best: &best, Hypotheses: hyps(1)}}},
		}},
	}
}

// evaluateResponses is the evaluate shape matrix: every omitempty
// combination the grid can produce, including workflow forecasts (the
// json.Indent re-basing path) and an all-empty row — then the grid shapes.
func evaluateResponses() []*EvaluateResponse {
	best := 1
	zero := 0
	return append(gridResponses(), []*EvaluateResponse{
		{Platform: "p", Scenarios: nil, Stats: EvaluateStats{Scenarios: 1, Queries: 1, Cells: 1, Groups: 1}},
		{Platform: "p", Scenarios: []ScenarioResult{}},
		{Platform: "<p>&", Scenarios: []ScenarioResult{{}}},
		{Platform: "p", Scenarios: []ScenarioResult{
			{Name: "failed", Error: "scenario <compile> error", Epoch: 0},
			{Name: "ok", Epoch: 42, Provenance: "scale_link(a_nic,0.5)", BackgroundFlows: 3, Results: []EvalResult{
				{},
				{Error: "cell error & detail"},
				{Predictions: []Prediction{{Src: "a", Dst: "b", Size: 5e8, Duration: 1.5}}},
				{Best: &best, Hypotheses: []HypothesisResult{
					{Index: 0, Makespan: 3, Predictions: []Prediction{{Src: "x", Dst: "y", Size: 1, Duration: 3}}},
					{Index: 1, Makespan: 2, Predictions: nil},
				}},
				{Best: &zero, Hypotheses: []HypothesisResult{}},
				{Forecast: &workflow.Forecast{}},
			}},
		}, Stats: EvaluateStats{
			Scenarios: 2, Queries: 6, Cells: 12, Groups: 2, OverlaysReused: 1,
			Simulations: 4, CacheHits: 2, BaseGroups: 1, ForkReused: 1,
			ForkRuns: 2, ForkCold: 1,
		}},
	}...)
}

func TestHotEvaluateMatchesEncodingJSON(t *testing.T) {
	s := NewServer(nil, nil)
	for i, resp := range evaluateResponses() {
		rec := httptest.NewRecorder()
		s.writeEvaluate(rec, resp)
		if want := legacyBytes(t, resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("case %d: hot encoder diverged\nhot:    %q\nlegacy: %q", i, rec.Body.Bytes(), want)
		}
	}
}

// TestHotEvaluateStreamsLargeGrids pushes a response past the flush
// threshold so the row-by-row streaming path runs, and checks the
// reassembled stream is still byte-identical.
func TestHotEvaluateStreamsLargeGrids(t *testing.T) {
	var rows []ScenarioResult
	preds := make([]Prediction, 40)
	for i := range preds {
		preds[i] = Prediction{Src: "node-" + strings.Repeat("a", i), Dst: "dst", Size: float64(i) * 1e7, Duration: float64(i) / 3}
	}
	for i := 0; i < 200; i++ {
		// Shared slices, re-asked questions and flushes interleave: a row
		// template must not outlive the bytes it points into.
		answer := preds
		if i%3 == 1 {
			answer = append([]Prediction(nil), preds...)
			answer[i%len(answer)].Duration = float64(i)
		}
		rows = append(rows, ScenarioResult{Name: "sc", Epoch: uint64(i + 1), Results: []EvalResult{{Predictions: answer}}})
	}
	resp := &EvaluateResponse{Platform: "p", Scenarios: rows, Stats: EvaluateStats{Scenarios: 200, Queries: 1, Cells: 200, Groups: 200}}
	want := legacyBytes(t, resp)
	if len(want) < 2*evalFlushThreshold {
		t.Fatalf("test response too small to stream: %d bytes", len(want))
	}
	s := NewServer(nil, nil)
	rec := httptest.NewRecorder()
	s.writeEvaluate(rec, resp)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("streamed evaluate diverged (%d vs %d bytes)", rec.Body.Len(), len(want))
	}
}

// orderedPredictionBytes answers the way handlePredict does: the
// canonical answer rendered in request order through the permutation,
// falling back to encoding/json of the reordered slice.
func orderedPredictionBytes(canonical []Prediction, order []int) (body []byte, fallback bool) {
	e := encodePredictions(canonical, order)
	fallback = e.fallback
	rec := httptest.NewRecorder()
	writeHotJSON(rec, e, func() any { return reorder(canonical, order) })
	return rec.Body.Bytes(), fallback
}

// legacyWriteBytes is what the SetLegacyJSON path writes for v (nothing,
// when encoding/json refuses it).
func legacyWriteBytes(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, v)
	return rec.Body.Bytes()
}

// TestPredictionsInOrderMatchesReorder pins the hot predict writer's
// request-order rendering: byte-identical to encoding/json of
// reorder(canonical, order) for arbitrary permutations, for the stable
// order canonicalize gives equal transfers, for one transfer — and for a
// non-finite duration, which must take the fallback and still write the
// legacy bytes.
func TestPredictionsInOrderMatchesReorder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type tc struct {
		name      string
		canonical []Prediction
		order     []int
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 7, 30, 61} {
		for k := 0; k < 3; k++ {
			cases = append(cases, tc{fmt.Sprintf("perm n=%d #%d", n, k), question("q", n, float64(k)), rng.Perm(n)})
		}
	}
	// Equal transfers: the request repeats (src, dst, size) triples, and the
	// canonical answers of the repeats differ only in their durations.
	var req []TransferRequest
	for i := 0; i < 20; i++ {
		req = append(req, TransferRequest{Src: fmt.Sprintf("s%d", rng.Intn(3)), Dst: "d", Size: float64(1 + rng.Intn(2))})
	}
	order := canonicalize(req)
	canonical := make([]Prediction, len(req))
	for pos, i := range order {
		canonical[pos] = Prediction{Src: req[i].Src, Dst: req[i].Dst, Size: req[i].Size, Duration: float64(pos) + 0.5}
	}
	cases = append(cases, tc{"equal transfers", canonical, order})
	for _, c := range cases {
		got, fallback := orderedPredictionBytes(c.canonical, c.order)
		if fallback {
			t.Errorf("%s: unexpected fallback", c.name)
			continue
		}
		if want := legacyBytes(t, reorder(c.canonical, c.order)); !bytes.Equal(got, want) {
			t.Errorf("%s: request-order rendering diverged\nhot:    %q\nlegacy: %q", c.name, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		nonFinite := question("q", 5, 1)
		nonFinite[3].Duration = f
		perm := []int{4, 2, 0, 1, 3}
		got, fallback := orderedPredictionBytes(nonFinite, perm)
		if !fallback {
			t.Errorf("duration %v: fallback flag not set", f)
		}
		if want := legacyWriteBytes(reorder(nonFinite, perm)); !bytes.Equal(got, want) {
			t.Errorf("duration %v: fallback wrote %q, legacy %q", f, got, want)
		}
	}
}

// TestLegacyJSONEscapeHatch pins that SetLegacyJSON routes the same
// response through encoding/json — and that both paths serve identical
// bytes over real HTTP.
func TestLegacyJSONEscapeHatch(t *testing.T) {
	entry := miniEntry(t)
	reg := NewRegistry()
	if err := reg.Add("g5k_test", entry); err != nil {
		t.Fatal(err)
	}
	s := NewServer(reg, nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	urls := []string{
		"/pilgrim/predict_transfers/g5k_test?transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8",
		"/pilgrim/select_fastest/g5k_test?hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8&hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-3.lyon.grid5000.fr,5e8",
	}
	for _, u := range urls {
		hot := httpGetBody(t, srv.URL+u)
		s.SetLegacyJSON(true)
		legacy := httpGetBody(t, srv.URL+u)
		s.SetLegacyJSON(false)
		if !bytes.Equal(hot, legacy) {
			t.Errorf("%s: hot and legacy bodies differ\nhot:    %q\nlegacy: %q", u, hot, legacy)
		}
	}
}

// httpGetBody fetches one URL and returns the body, failing the test
// on transport or status errors.
func httpGetBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// FuzzHotPredictionsEncoder fuzzes the prediction encoder against
// encoding/json: arbitrary strings (escaping) and floats (both formats,
// exponent cleanup) must encode byte-identically, and non-finite floats
// must trip the fallback flag.
func FuzzHotPredictionsEncoder(f *testing.F) {
	f.Add("src", "dst", 5e8, 12.5)
	f.Add("<s>& ", "\xff\x00\t", 1e-7, -1e21)
	f.Add("", "", math.Copysign(0, -1), 9.999999999999999e20)
	f.Add("s", "d", 5e8, math.NaN())
	f.Fuzz(func(t *testing.T, src, dst string, size, duration float64) {
		preds := []Prediction{{Src: src, Dst: dst, Size: size, Duration: duration}}
		got, fallback := hotPredictionBytes(preds)
		nonFinite := math.IsNaN(size) || math.IsInf(size, 0) || math.IsNaN(duration) || math.IsInf(duration, 0)
		// The same prediction beside its mirror image, answered in request
		// order through a swap: the hot predict writer, fallback included.
		canonical := []Prediction{preds[0], {Src: dst, Dst: src, Size: size, Duration: -duration}}
		order := []int{1, 0}
		ordered, orderedFallback := orderedPredictionBytes(canonical, order)
		if want := legacyWriteBytes(reorder(canonical, order)); orderedFallback != nonFinite || !bytes.Equal(ordered, want) {
			t.Fatalf("request-order rendering diverged (fallback %v)\nhot:    %q\nlegacy: %q", orderedFallback, ordered, want)
		}
		if nonFinite {
			if !fallback {
				t.Fatalf("non-finite floats must fall back (size=%v duration=%v)", size, duration)
			}
			return
		}
		if fallback {
			t.Fatalf("unexpected fallback for %+v", preds)
		}
		if want := legacyBytes(t, preds); !bytes.Equal(got, want) {
			t.Fatalf("hot encoder diverged\nhot:    %q\nlegacy: %q", got, want)
		}
	})
}
