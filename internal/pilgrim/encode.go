package pilgrim

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"pilgrim/internal/jsonenc"
	"pilgrim/internal/workflow"
)

// This file is the serving hot path's JSON writer: hand-rolled
// append-style encoders for the three simulation responses
// (predict_transfers, select_fastest, evaluate) over pooled buffers.
// encoding/json costs one reflect walk plus per-field allocations on
// every response; these encoders know the three shapes statically and
// append into a reused buffer instead.
//
// The contract — pinned by TestHotEncodersMatchEncodingJSON and the
// fuzz target — is byte identity with the legacy path:
//
//	enc := json.NewEncoder(w); enc.SetIndent("", " "); enc.Encode(v)
//
// including the one-space indent ladder, the trailing newline, and
// encoding/json's string and float rules (internal/jsonenc: HTML-escaped
// strings, ES6 float formatting).
// Anything these encoders cannot reproduce exactly — a non-finite
// float, a workflow forecast that fails to marshal — flips the
// buffer's fallback flag and the caller re-encodes through
// encoding/json, so the wire format never forks.

// hotEnc is one pooled encode buffer.
type hotEnc struct {
	buf []byte
	// fallback records an input the hot path must not encode (the
	// legacy encoder errors on it, or reproducing it exactly is not
	// worth hand-rolling); the caller falls back to encoding/json.
	fallback bool
	// row is the last prediction array rendered (see predictions).
	row rowTemplate
	// inv is predictionsInOrder's inverse-permutation scratch.
	inv []int
}

// rowTemplate remembers where in buf the last []Prediction was rendered and
// where its duration values sit. A what-if grid asks one question under N
// pictures, so consecutive rows differ only in their durations — or not at
// all, when two scenarios share an answer.
type rowTemplate struct {
	preds      []Prediction // nil: no template (nothing rendered yet, or buf was flushed)
	depth      int
	start, end int   // buf[start:end] is the rendering
	durs       []int // per prediction, the [from, to) of its duration value in buf
}

var encPool = sync.Pool{
	New: func() any { return &hotEnc{buf: make([]byte, 0, 4096)} },
}

func getEnc() *hotEnc {
	e := encPool.Get().(*hotEnc)
	e.buf = e.buf[:0]
	e.fallback = false
	return e
}

// putEnc returns a buffer to the pool. Oversized buffers (one huge
// evaluate grid) are dropped instead of pinning their backing arrays.
func putEnc(e *hotEnc) {
	e.row.preds = nil
	if cap(e.buf) <= 1<<20 {
		encPool.Put(e)
	}
}

// indentSpaces serves nl(); the response shapes nest at most 8 deep,
// far under its length.
const indentSpaces = "                                                                "

// nl appends the indented-encoder line break: newline plus depth
// spaces (SetIndent prefix "", indent " ").
func (e *hotEnc) nl(depth int) {
	e.buf = append(e.buf, '\n')
	e.buf = append(e.buf, indentSpaces[:depth]...)
}

// raw appends literal bytes (punctuation and pre-escaped keys).
func (e *hotEnc) raw(s string) { e.buf = append(e.buf, s...) }

// str appends a JSON string exactly as encoding/json does with HTML
// escaping on (the Encoder default).
func (e *hotEnc) str(s string) { e.buf = jsonenc.AppendString(e.buf, s) }

// f64 appends a float in encoding/json's float64 form. Non-finite values
// flip the fallback flag — the legacy encoder rejects them, and the caller
// must reproduce that, not invent a representation.
func (e *hotEnc) f64(f float64) {
	var ok bool
	if e.buf, ok = jsonenc.AppendFloat(e.buf, f); !ok {
		e.fallback = true
		e.buf = append(e.buf, '0')
	}
}

func (e *hotEnc) int(n int)       { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }
func (e *hotEnc) uint64(n uint64) { e.buf = strconv.AppendUint(e.buf, n, 10) }

// predictions appends a []Prediction at the given depth. A nil slice is
// null, an empty one [] — exactly encoding/json's distinction. When the
// previous array rendered at this depth is the same slice, its bytes are
// copied; when it answers the same (src, dst, size) sequence, everything
// but the durations is — the bytes are the ones a fresh render would write.
func (e *hotEnc) predictions(preds []Prediction, depth int) {
	if preds == nil {
		e.raw("null")
		return
	}
	if len(preds) == 0 {
		e.raw("[]")
		return
	}
	t := &e.row
	if len(t.preds) == len(preds) && t.depth == depth {
		if &t.preds[0] == &preds[0] {
			e.buf = append(e.buf, e.buf[t.start:t.end]...)
			return
		}
		if sameQuestion(t.preds, preds) {
			e.replayRow(preds)
			return
		}
	}
	t.preds, t.depth, t.start, t.durs = preds, depth, len(e.buf), t.durs[:0]
	e.raw("[")
	for i := range preds {
		if i > 0 {
			e.raw(",")
		}
		from, to := e.prediction(&preds[i], depth+1)
		t.durs = append(t.durs, from, to)
	}
	e.nl(depth)
	e.raw("]")
	t.end = len(e.buf)
}

// predictionsInOrder appends the answer to a predict_transfers request
// from its canonical-order answer: element i is canonical[pos] where
// order[pos] == i. The bytes are those predictions(reorder(canonical,
// order), depth) writes, without building the reordered slice; the row
// template is neither read nor set, since the same slice renders
// differently under another permutation.
func (e *hotEnc) predictionsInOrder(canonical []Prediction, order []int, depth int) {
	if len(canonical) == 0 {
		e.raw("[]") // reorder never returns nil
		return
	}
	n := len(order)
	e.inv = slices.Grow(e.inv[:0], n)[:n]
	for pos, i := range order {
		e.inv[i] = pos
	}
	e.raw("[")
	for i, pos := range e.inv {
		if i > 0 {
			e.raw(",")
		}
		e.prediction(&canonical[pos], depth+1)
	}
	e.nl(depth)
	e.raw("]")
}

// prediction appends one array element at the given depth and returns
// where in buf its duration value sits.
func (e *hotEnc) prediction(p *Prediction, depth int) (durFrom, durTo int) {
	e.nl(depth)
	e.raw("{")
	e.nl(depth + 1)
	e.raw(`"src": `)
	e.str(p.Src)
	e.raw(",")
	e.nl(depth + 1)
	e.raw(`"dst": `)
	e.str(p.Dst)
	e.raw(",")
	e.nl(depth + 1)
	e.raw(`"size": `)
	e.f64(p.Size)
	e.raw(",")
	e.nl(depth + 1)
	e.raw(`"duration": `)
	durFrom = len(e.buf)
	e.f64(p.Duration)
	durTo = len(e.buf)
	e.nl(depth)
	e.raw("}")
	return durFrom, durTo
}

// sameQuestion reports whether two equally long answers carry the same
// (src, dst, size) sequence — sizes by bit pattern, since -0 and 0 render
// differently.
func sameQuestion(a, b []Prediction) bool {
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || math.Float64bits(a[i].Size) != math.Float64bits(b[i].Size) {
			return false
		}
	}
	return true
}

// replayRow renders preds from the template: the bytes between duration
// values are copied, the durations formatted afresh, and the template moves
// to the new rendering.
func (e *hotEnc) replayRow(preds []Prediction) {
	t := &e.row
	start, src := len(e.buf), t.start
	for i := range preds {
		from, to := t.durs[2*i], t.durs[2*i+1]
		e.buf = append(e.buf, e.buf[src:from]...)
		t.durs[2*i] = len(e.buf)
		e.f64(preds[i].Duration)
		t.durs[2*i+1] = len(e.buf)
		src = to
	}
	e.buf = append(e.buf, e.buf[src:t.end]...)
	t.preds, t.start, t.end = preds, start, len(e.buf)
}

// hypothesisResults appends a []HypothesisResult at the given depth.
func (e *hotEnc) hypothesisResults(results []HypothesisResult, depth int) {
	if results == nil {
		e.raw("null")
		return
	}
	if len(results) == 0 {
		e.raw("[]")
		return
	}
	e.raw("[")
	for i := range results {
		r := &results[i]
		if i > 0 {
			e.raw(",")
		}
		e.nl(depth + 1)
		e.raw("{")
		e.nl(depth + 2)
		e.raw(`"index": `)
		e.int(r.Index)
		e.raw(",")
		e.nl(depth + 2)
		e.raw(`"makespan": `)
		e.f64(r.Makespan)
		e.raw(",")
		e.nl(depth + 2)
		e.raw(`"predictions": `)
		e.predictions(r.Predictions, depth+2)
		e.nl(depth + 1)
		e.raw("}")
	}
	e.nl(depth)
	e.raw("]")
}

// selectFastestResponse appends the whole select_fastest answer plus
// the Encode trailing newline.
func (e *hotEnc) selectFastestResponse(best int, results []HypothesisResult) {
	e.raw("{")
	e.nl(1)
	e.raw(`"best": `)
	e.int(best)
	e.raw(",")
	e.nl(1)
	e.raw(`"results": `)
	e.hypothesisResults(results, 1)
	e.nl(0)
	e.raw("}\n")
}

// field starts one object member at depth, managing the separating
// comma via the caller's first flag.
func (e *hotEnc) field(first *bool, depth int, key string) {
	if !*first {
		e.raw(",")
	}
	*first = false
	e.nl(depth)
	e.raw(key)
}

// forecast appends a *workflow.Forecast through encoding/json — the
// workflow grid is cold (one cell kind, never the QPS path) and its
// schedule shape is owned by the workflow package. json.Indent re-bases
// the compact marshal onto the surrounding ladder: prefix = the
// member's depth, indent = one space, which is exactly how the legacy
// encoder renders a nested value.
func (e *hotEnc) forecast(f *workflow.Forecast, depth int) {
	compact, err := json.Marshal(f)
	if err != nil {
		e.fallback = true
		e.raw("null")
		return
	}
	var out bytes.Buffer
	if err := json.Indent(&out, compact, indentSpaces[:depth], " "); err != nil {
		e.fallback = true
		e.raw("null")
		return
	}
	e.buf = append(e.buf, out.Bytes()...)
}

// evalResult appends one answer-grid cell at the given depth, honoring
// every omitempty in EvalResult.
func (e *hotEnc) evalResult(r *EvalResult, depth int) {
	if r.Error == "" && len(r.Predictions) == 0 && r.Best == nil &&
		len(r.Hypotheses) == 0 && r.Forecast == nil {
		e.raw("{}")
		return
	}
	e.raw("{")
	first := true
	if r.Error != "" {
		e.field(&first, depth+1, `"error": `)
		e.str(r.Error)
	}
	if len(r.Predictions) > 0 {
		e.field(&first, depth+1, `"predictions": `)
		e.predictions(r.Predictions, depth+1)
	}
	if r.Best != nil {
		e.field(&first, depth+1, `"best": `)
		e.int(*r.Best)
	}
	if len(r.Hypotheses) > 0 {
		e.field(&first, depth+1, `"hypotheses": `)
		e.hypothesisResults(r.Hypotheses, depth+1)
	}
	if r.Forecast != nil {
		e.field(&first, depth+1, `"forecast": `)
		e.forecast(r.Forecast, depth+1)
	}
	e.nl(depth)
	e.raw("}")
}

// scenarioResult appends one scenario row at the given depth.
func (e *hotEnc) scenarioResult(sr *ScenarioResult, depth int) {
	e.raw("{")
	first := true
	if sr.Name != "" {
		e.field(&first, depth+1, `"name": `)
		e.str(sr.Name)
	}
	if sr.Epoch != 0 {
		e.field(&first, depth+1, `"epoch": `)
		e.uint64(sr.Epoch)
	}
	if sr.Provenance != "" {
		e.field(&first, depth+1, `"provenance": `)
		e.str(sr.Provenance)
	}
	if sr.BackgroundFlows != 0 {
		e.field(&first, depth+1, `"background_flows": `)
		e.int(sr.BackgroundFlows)
	}
	if sr.Error != "" {
		e.field(&first, depth+1, `"error": `)
		e.str(sr.Error)
	}
	if len(sr.Results) > 0 {
		e.field(&first, depth+1, `"results": `)
		e.raw("[")
		for i := range sr.Results {
			if i > 0 {
				e.raw(",")
			}
			e.nl(depth + 2)
			e.evalResult(&sr.Results[i], depth+2)
		}
		e.nl(depth + 1)
		e.raw("]")
	}
	if first {
		e.raw("}")
		return
	}
	e.nl(depth)
	e.raw("}")
}

// evaluateStats appends the stats block at the given depth.
func (e *hotEnc) evaluateStats(st *EvaluateStats, depth int) {
	e.raw("{")
	first := true
	e.field(&first, depth+1, `"scenarios": `)
	e.int(st.Scenarios)
	e.field(&first, depth+1, `"queries": `)
	e.int(st.Queries)
	e.field(&first, depth+1, `"cells": `)
	e.int(st.Cells)
	e.field(&first, depth+1, `"groups": `)
	e.int(st.Groups)
	e.field(&first, depth+1, `"overlays_reused": `)
	e.int(st.OverlaysReused)
	e.field(&first, depth+1, `"simulations": `)
	e.int(st.Simulations)
	e.field(&first, depth+1, `"cache_hits": `)
	e.int(st.CacheHits)
	if st.BaseGroups != 0 {
		e.field(&first, depth+1, `"base_groups": `)
		e.int(st.BaseGroups)
	}
	if st.ForkReused != 0 {
		e.field(&first, depth+1, `"fork_reused": `)
		e.int(st.ForkReused)
	}
	if st.ForkRuns != 0 {
		e.field(&first, depth+1, `"fork_runs": `)
		e.int(st.ForkRuns)
	}
	if st.ForkCold != 0 {
		e.field(&first, depth+1, `"fork_cold": `)
		e.int(st.ForkCold)
	}
	e.nl(depth)
	e.raw("}")
}

// evalFlushThreshold is the streaming high-water mark: while encoding
// an evaluate grid, the buffer is flushed to the client whenever a
// completed scenario row leaves it this full, so a huge grid streams
// row by row instead of materializing wholesale.
const evalFlushThreshold = 64 << 10

// writeHotJSON finishes one hot-path response: on a clean encode the
// pooled buffer goes out in one Write; on fallback the legacy encoder
// re-renders legacy() from scratch (headers not yet written, so the two
// paths are indistinguishable on the wire). legacy builds the value only
// when it is needed.
func writeHotJSON(w http.ResponseWriter, e *hotEnc, legacy func() any) {
	if e.fallback {
		putEnc(e)
		writeJSON(w, legacy())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(e.buf)
	putEnc(e)
}

// writeSelectFastest answers select_fastest.
func (s *Server) writeSelectFastest(w http.ResponseWriter, best int, results []HypothesisResult) {
	if s.legacyJSON.Load() {
		writeJSON(w, selectFastestResponse{Best: best, Results: results})
		return
	}
	e := getEnc()
	e.selectFastestResponse(best, results)
	writeHotJSON(w, e, func() any { return selectFastestResponse{Best: best, Results: results} })
}

// encodePredictions renders the predict_transfers answer — canonical in
// request order, through the permutation — into a pooled encoder, for
// writeHotJSON with the reordered slice as its fallback value.
func encodePredictions(canonical []Prediction, order []int) *hotEnc {
	e := getEnc()
	e.predictionsInOrder(canonical, order, 0)
	e.raw("\n")
	return e
}

// selectFastestResponse is the select_fastest answer shape (shared by
// the hot encoder's fallback and the legacy path).
type selectFastestResponse struct {
	Best    int                `json:"best"`
	Results []HypothesisResult `json:"results"`
}

// writeEvaluate answers evaluate, streaming scenario rows: the grid is
// encoded row by row into the pooled buffer and flushed at
// evalFlushThreshold boundaries, so response memory stays bounded by
// the largest row, not the grid. The fallback decision is made before
// the first flush; a non-finite value appearing in a later row of an
// already-streaming response truncates it (the legacy encoder would
// have sent nothing — but no simulation produces non-finite output, so
// this corner exists only for the flag check below).
func (s *Server) writeEvaluate(w http.ResponseWriter, resp *EvaluateResponse) {
	if s.legacyJSON.Load() {
		writeJSON(w, resp)
		return
	}
	e := getEnc()
	e.raw("{")
	e.nl(1)
	e.raw(`"platform": `)
	e.str(resp.Platform)
	e.raw(",")
	e.nl(1)
	e.raw(`"scenarios": `)
	streaming := false
	flush := func() bool {
		if e.fallback {
			return !streaming
		}
		if len(e.buf) >= evalFlushThreshold {
			if !streaming {
				w.Header().Set("Content-Type", "application/json")
				streaming = true
			}
			_, _ = w.Write(e.buf)
			e.buf = e.buf[:0]
			e.row.preds = nil // its bytes just left the buffer
		}
		return false
	}
	switch {
	case resp.Scenarios == nil:
		e.raw("null")
	case len(resp.Scenarios) == 0:
		e.raw("[]")
	default:
		e.raw("[")
		for i := range resp.Scenarios {
			if i > 0 {
				e.raw(",")
			}
			e.nl(2)
			e.scenarioResult(&resp.Scenarios[i], 2)
			if flush() {
				putEnc(e)
				writeJSON(w, resp)
				return
			}
		}
		e.nl(1)
		e.raw("]")
	}
	e.raw(",")
	e.nl(1)
	e.raw(`"stats": `)
	e.evaluateStats(&resp.Stats, 1)
	e.nl(0)
	e.raw("}\n")
	if e.fallback && !streaming {
		putEnc(e)
		writeJSON(w, resp)
		return
	}
	if !streaming {
		w.Header().Set("Content-Type", "application/json")
	}
	if !e.fallback {
		_, _ = w.Write(e.buf)
	}
	putEnc(e)
}
