package pilgrim

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"pilgrim/internal/jsonenc"
	"pilgrim/internal/scenario"
)

// The request decoders (docs/DESIGN.md, "Serving hot path: strict
// decoders"). Each accepts a strict subset of what its generic counterpart
// — encoding/json for the evaluate body, url.ParseQuery for the
// predict_transfers query — accepts, produces exactly the value that
// counterpart would, and declines everything else; the handler then runs
// the generic decoder on the same bytes, so error texts, case-folded keys,
// nulls, duplicate and unknown keys, and a query's %-escapes keep their
// generic meaning.

// predictQuery is a decoded predict_transfers query string. The handler
// takes one from predictQueries and releases it on return: nothing a request
// leaves behind holds the transfer list (a cached answer keeps the
// request's strings, never the list).
type predictQuery struct {
	transfers   []TransferRequest // request order
	background  [][2]string
	at          string // the first at= value, as url.Values.Get
	deadline    string // the first deadline= value
	hasAt       bool   // at= present, even empty, as url.Values.Has
	hasDeadline bool
	transferErr error // the first malformed transfer=
	bgErr       error // the first malformed bg=
}

var predictQueries = sync.Pool{New: func() any { return new(predictQuery) }}

// emptyPredictQuery is what a poll's handler reads before (and unless) it
// decodes: no at=, no deadline=. Nothing writes it.
var emptyPredictQuery predictQuery

// reset empties p, keeping the transfer list's capacity.
func (p *predictQuery) reset() {
	clear(p.transfers)
	*p = predictQuery{transfers: p.transfers[:0]}
}

func (p *predictQuery) release() {
	p.reset()
	predictQueries.Put(p)
}

var errNoTransfers = errors.New("at least one transfer parameter required")

// err is the 400 the query answers, in the order the handler has always
// checked: the transfers in request order, that there is one, then bg.
func (p *predictQuery) err() error {
	switch {
	case p.transferErr != nil:
		return p.transferErr
	case len(p.transfers) == 0:
		return errNoTransfers
	}
	return p.bgErr
}

func (p *predictQuery) addTransfer(v string) {
	if p.transferErr != nil {
		return
	}
	t, err := parseTransferParam(v)
	if err != nil {
		p.transferErr = err
		return
	}
	p.transfers = append(p.transfers, t)
}

func (p *predictQuery) addBackground(v string) {
	if p.bgErr != nil {
		return
	}
	src, dst, ok := strings.Cut(v, ",")
	if !ok || strings.Contains(dst, ",") {
		p.bgErr = fmt.Errorf("bg %q is not src,dst", v)
		return
	}
	p.background = append(p.background, [2]string{src, dst})
}

// fromValues fills p from a generically parsed query: the semantics the
// strict decoder must reproduce.
func (p *predictQuery) fromValues(q url.Values) {
	for _, v := range q["transfer"] {
		p.addTransfer(v)
	}
	for _, v := range q["bg"] {
		p.addBackground(v)
	}
	p.at, p.hasAt = q.Get("at"), q.Has("at")
	p.deadline, p.hasDeadline = q.Get("deadline"), q.Has("deadline")
}

// decodeStrict fills p from a raw query in one pass, without building
// url.Values. It declines — reports false and leaves p empty — on any
// '%', '+' or ';' (escapes, and the separator url.ParseQuery rejects) and
// on any non-empty segment without '='. On what remains url.ParseQuery
// unescapes nothing, so each value is the substring it would return.
func (p *predictQuery) decodeStrict(raw string) bool {
	// Three vectorized byte searches; strings.ContainsAny walks byte by byte.
	if strings.IndexByte(raw, '%') >= 0 || strings.IndexByte(raw, '+') >= 0 || strings.IndexByte(raw, ';') >= 0 {
		return false
	}
	for rest := raw; rest != ""; {
		var seg string
		seg, rest, _ = strings.Cut(rest, "&")
		if seg == "" {
			continue
		}
		key, value, ok := strings.Cut(seg, "=")
		if !ok {
			p.reset()
			return false
		}
		switch key {
		case "transfer":
			p.addTransfer(value)
		case "bg":
			p.addBackground(value)
		case "at":
			if !p.hasAt {
				p.at, p.hasAt = value, true
			}
		case "deadline":
			if !p.hasDeadline {
				p.deadline, p.hasDeadline = value, true
			}
		}
	}
	return true
}

// evalDecoder decodes an EvaluateRequest body: field tables over
// internal/jsonenc's strict reader. Elements are gathered on per-type
// stacks and copied out into exactly sized slices, so a decode allocates
// the slices and strings json.Unmarshal would and nothing else. No
// element type contains itself, so an element being decoded never sits
// on the stack it is decoding into.
type evalDecoder struct {
	r jsonenc.Reader
	// out is decoded into, then copied out: passed through the field
	// tables' calls, a local request would move to the heap.
	out EvaluateRequest

	scenarios  []scenario.Scenario
	mutations  []scenario.Mutation
	queries    []EvalQuery
	transfers  []TransferRequest
	hypotheses []Hypothesis
	pairs      [][2]string
}

var evalDecoders = sync.Pool{New: func() any { return new(evalDecoder) }}

// decodeStrict decodes data into req when data lies in the reader's strict
// subset (jsonenc.Reader: keys spelled exactly as the json tags, each at
// most once per object; no null; numbers in the JSON grammar, at, time
// and flows integers in range) and uses no workflow. It reports false and
// leaves req untouched otherwise.
func (req *EvaluateRequest) decodeStrict(data []byte) bool {
	d := evalDecoders.Get().(*evalDecoder)
	d.r.Reset(data)
	d.request(&d.out)
	ok := d.r.End() == nil
	out := d.out
	d.reset()
	if max(cap(d.scenarios), cap(d.mutations), cap(d.queries), cap(d.transfers), cap(d.hypotheses), cap(d.pairs)) <= maxPooledElems {
		evalDecoders.Put(d)
	}
	if ok {
		*req = out
	}
	return ok
}

// reset empties the stacks, keeping their capacity, and drops the reader
// (and the body it holds) and the request. A whole decode leaves the
// stacks empty already; a declined one may leave elements behind.
func (d *evalDecoder) reset() {
	*d = evalDecoder{
		scenarios: clearStack(d.scenarios), mutations: clearStack(d.mutations),
		queries: clearStack(d.queries), transfers: clearStack(d.transfers),
		hypotheses: clearStack(d.hypotheses), pairs: clearStack(d.pairs),
	}
}

func clearStack[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// maxPooledElems bounds the stack capacity a pooled decoder retains: a
// one-off huge body should not pin its stacks forever.
const maxPooledElems = 1 << 12

// gather reads an array whose elements elem decodes, gathering them on
// stack and returning a slice of their own: a non-nil empty slice for [],
// as json.Unmarshal leaves.
func gather[T any](d *evalDecoder, stack *[]T, elem func(*evalDecoder, *T)) []T {
	base := len(*stack)
	for i := 0; d.r.Item(i); i++ {
		var zero T
		*stack = append(*stack, zero)
		elem(d, &(*stack)[len(*stack)-1])
	}
	if d.r.Err() != nil {
		return nil
	}
	out := make([]T, len(*stack)-base)
	copy(out, (*stack)[base:])
	clear((*stack)[base:])
	*stack = (*stack)[:base]
	return out
}

// text reads a string value as a copy: nothing aliases the pooled body
// buffer.
func (d *evalDecoder) text() string { return string(d.r.StringBytes()) }

func copyText(b []byte) string { return string(b) }

var requestFields = []jsonenc.Field[*evalDecoder, *EvaluateRequest]{
	{Key: "at", Read: func(d *evalDecoder, req *EvaluateRequest) { req.At = d.r.Int(64) }},
	{Key: "scenarios", Read: func(d *evalDecoder, req *EvaluateRequest) {
		req.Scenarios = gather(d, &d.scenarios, (*evalDecoder).scenario)
	}},
	{Key: "queries", Read: func(d *evalDecoder, req *EvaluateRequest) {
		req.Queries = gather(d, &d.queries, (*evalDecoder).query)
	}},
}

var scenarioFields = []jsonenc.Field[*evalDecoder, *scenario.Scenario]{
	{Key: "name", Read: func(d *evalDecoder, sc *scenario.Scenario) { sc.Name = d.text() }},
	{Key: "mutations", Read: func(d *evalDecoder, sc *scenario.Scenario) {
		sc.Mutations = gather(d, &d.mutations, (*evalDecoder).mutation)
	}},
}

var mutationFields = []jsonenc.Field[*evalDecoder, *scenario.Mutation]{
	{Key: "op", Read: func(d *evalDecoder, m *scenario.Mutation) { m.Op = scenario.Op(d.text()) }},
	{Key: "link", Read: func(d *evalDecoder, m *scenario.Mutation) { m.Link = d.text() }},
	{Key: "host", Read: func(d *evalDecoder, m *scenario.Mutation) { m.Host = d.text() }},
	{Key: "bandwidth_factor", Read: func(d *evalDecoder, m *scenario.Mutation) { m.BandwidthFactor = d.r.Float() }},
	{Key: "latency_factor", Read: func(d *evalDecoder, m *scenario.Mutation) { m.LatencyFactor = d.r.Float() }},
	{Key: "bandwidth", Read: func(d *evalDecoder, m *scenario.Mutation) {
		m.Bandwidth = new(float64)
		*m.Bandwidth = d.r.Float()
	}},
	{Key: "latency", Read: func(d *evalDecoder, m *scenario.Mutation) {
		m.Latency = new(float64)
		*m.Latency = d.r.Float()
	}},
	{Key: "src", Read: func(d *evalDecoder, m *scenario.Mutation) { m.Src = d.text() }},
	{Key: "dst", Read: func(d *evalDecoder, m *scenario.Mutation) { m.Dst = d.text() }},
	{Key: "flows", Read: func(d *evalDecoder, m *scenario.Mutation) { m.Flows = int(d.r.Int(strconv.IntSize)) }},
	{Key: "time", Read: func(d *evalDecoder, m *scenario.Mutation) { m.Time = d.r.Int(64) }},
}

var queryFields = []jsonenc.Field[*evalDecoder, *EvalQuery]{
	{Key: "kind", Read: func(d *evalDecoder, q *EvalQuery) { q.Kind = d.text() }},
	{Key: "transfers", Read: func(d *evalDecoder, q *EvalQuery) {
		q.Transfers = gather(d, &d.transfers, (*evalDecoder).transfer)
	}},
	{Key: "bg", Read: func(d *evalDecoder, q *EvalQuery) { q.Background = gather(d, &d.pairs, (*evalDecoder).pair) }},
	{Key: "hypotheses", Read: func(d *evalDecoder, q *EvalQuery) {
		q.Hypotheses = gather(d, &d.hypotheses, (*evalDecoder).hypothesis)
	}},
}

var hypothesisFields = []jsonenc.Field[*evalDecoder, *Hypothesis]{
	{Key: "transfers", Read: func(d *evalDecoder, h *Hypothesis) {
		h.Transfers = gather(d, &d.transfers, (*evalDecoder).transfer)
	}},
}

var transferFields = []jsonenc.Field[*evalDecoder, *TransferRequest]{
	{Key: "src", Read: func(d *evalDecoder, t *TransferRequest) { t.Src = d.text() }},
	{Key: "dst", Read: func(d *evalDecoder, t *TransferRequest) { t.Dst = d.text() }},
	{Key: "size", Read: func(d *evalDecoder, t *TransferRequest) { t.Size = d.r.Float() }},
}

func (d *evalDecoder) request(req *EvaluateRequest) { jsonenc.Object(&d.r, d, req, requestFields) }

func (d *evalDecoder) scenario(sc *scenario.Scenario) { jsonenc.Object(&d.r, d, sc, scenarioFields) }

func (d *evalDecoder) mutation(m *scenario.Mutation) { jsonenc.Object(&d.r, d, m, mutationFields) }

func (d *evalDecoder) query(q *EvalQuery) { jsonenc.Object(&d.r, d, q, queryFields) }

func (d *evalDecoder) hypothesis(h *Hypothesis) { jsonenc.Object(&d.r, d, h, hypothesisFields) }

func (d *evalDecoder) transfer(t *TransferRequest) { jsonenc.Object(&d.r, d, t, transferFields) }

// pair decodes a bg element: exactly two strings (json.Unmarshal zero-fills
// a shorter array and drops the rest of a longer one; both decline here).
func (d *evalDecoder) pair(p *[2]string) { *p = d.r.Pair(copyText) }
