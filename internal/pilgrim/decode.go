package pilgrim

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"pilgrim/internal/scenario"
)

// The request decoders (docs/DESIGN.md, "Serving hot path: strict
// decoders"). Each accepts a strict subset of what its generic counterpart
// — encoding/json for the evaluate body, url.ParseQuery for the
// predict_transfers query — accepts, produces exactly the value that
// counterpart would, and declines everything else; the handler then runs
// the generic decoder on the same bytes, so error texts, case-folded keys,
// escapes, nulls, duplicate and unknown keys keep their generic meaning.

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

// evalDecoder decodes an EvaluateRequest body. Elements are gathered on
// per-type stacks and copied out into exactly sized slices, so a decode
// allocates the slices and strings json.Unmarshal would and nothing else.
// No element type contains itself, so an element being decoded never sits
// on the stack it is decoding into.
type evalDecoder struct {
	data []byte
	i    int

	scenarios  []scenario.Scenario
	mutations  []scenario.Mutation
	queries    []EvalQuery
	transfers  []TransferRequest
	hypotheses []Hypothesis
	pairs      [][2]string
}

var evalDecoders = sync.Pool{New: func() any { return new(evalDecoder) }}

// decodeStrict decodes data into req when data lies in the strict subset:
// JSON whitespace; keys spelled exactly as the json tags, each at most
// once per object; strings of bytes 0x20–0x7E other than '"' and '\';
// numbers in the JSON grammar (floats through strconv.ParseFloat, at, time
// and flows in integer grammar and in range); no null, no workflow, and
// nothing but whitespace after the top-level object. It reports false and
// leaves req untouched otherwise.
func (req *EvaluateRequest) decodeStrict(data []byte) bool {
	d := evalDecoders.Get().(*evalDecoder)
	d.data, d.i = data, 0
	var out EvaluateRequest
	ok := d.request(&out) && d.end()
	d.reset()
	if max(cap(d.scenarios), cap(d.mutations), cap(d.queries), cap(d.transfers), cap(d.hypotheses), cap(d.pairs)) <= maxPooledElems {
		evalDecoders.Put(d)
	}
	if ok {
		*req = out
	}
	return ok
}

// reset empties the stacks, keeping their capacity. A whole decode leaves
// them empty already; a declined one may leave elements behind.
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

func (d *evalDecoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it comes next.
func (d *evalDecoder) next(c byte) bool {
	d.ws()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *evalDecoder) end() bool {
	d.ws()
	return d.i == len(d.data)
}

// chars consumes a string's contents up to and including its closing
// quote, which must follow only bytes 0x20–0x7E other than '"' and '\'.
func (d *evalDecoder) chars() ([]byte, bool) {
	n := bytes.IndexByte(d.data[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	s := d.data[d.i : d.i+n]
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
	}
	d.i += n + 1
	return s, true
}

func (d *evalDecoder) str(s *string) bool {
	if !d.next('"') {
		return false
	}
	b, ok := d.chars()
	*s = string(b) // a copy: nothing aliases the pooled body buffer
	return ok
}

// number consumes a number in the JSON grammar — only its integer part
// when wholeOnly is set, so a fraction or exponent then fails the caller's
// next structural check.
func (d *evalDecoder) number(wholeOnly bool) ([]byte, bool) {
	d.ws()
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, false
	}
	if !wholeOnly {
		if d.peek() == '.' {
			d.i++
			if !d.digits() {
				return nil, false
			}
		}
		if c := d.peek(); c == 'e' || c == 'E' {
			d.i++
			if c := d.peek(); c == '+' || c == '-' {
				d.i++
			}
			if !d.digits() {
				return nil, false
			}
		}
	}
	return d.data[start:d.i], true
}

func (d *evalDecoder) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *evalDecoder) digits() bool {
	start := d.i
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *evalDecoder) float(f *float64) bool {
	b, ok := d.number(false)
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(b), 64)
	*f = v
	return err == nil
}

func (d *evalDecoder) integer(n *int64, bits int) bool {
	b, ok := d.number(true)
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(b), 10, bits)
	*n = v
	return err == nil
}

// object walks an object, handing each key to member, which reads the
// key's value and reports false on a key outside the strict set or a
// malformed value. A key repeated within the object declines.
func (d *evalDecoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen [maxKeys][]byte
	for n := 0; ; n++ {
		if n == maxKeys || !d.next('"') {
			return false
		}
		key, ok := d.chars()
		if !ok {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !d.next(':') || !member(key) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

// maxKeys is the most keys an object of the strict subset has: a
// mutation's 11.
const maxKeys = 11

// array decodes an array whose elements elem decodes, gathering them on
// stack and returning a slice of their own: a non-nil empty slice for
// [], as json.Unmarshal leaves.
func array[T any](d *evalDecoder, stack *[]T, elem func(*evalDecoder, *T) bool) ([]T, bool) {
	if !d.next('[') {
		return nil, false
	}
	if d.next(']') {
		return []T{}, true
	}
	base := len(*stack)
	for {
		var zero T
		*stack = append(*stack, zero)
		if !elem(d, &(*stack)[len(*stack)-1]) {
			return nil, false
		}
		if d.next(']') {
			break
		}
		if !d.next(',') {
			return nil, false
		}
	}
	out := make([]T, len(*stack)-base)
	copy(out, (*stack)[base:])
	clear((*stack)[base:])
	*stack = (*stack)[:base]
	return out, true
}

func (d *evalDecoder) request(req *EvaluateRequest) bool {
	return d.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "at":
			return d.integer(&req.At, 64)
		case "scenarios":
			req.Scenarios, ok = array(d, &d.scenarios, (*evalDecoder).scenario)
		case "queries":
			req.Queries, ok = array(d, &d.queries, (*evalDecoder).query)
		}
		return ok
	})
}

func (d *evalDecoder) scenario(sc *scenario.Scenario) bool {
	return d.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "name":
			return d.str(&sc.Name)
		case "mutations":
			sc.Mutations, ok = array(d, &d.mutations, (*evalDecoder).mutation)
		}
		return ok
	})
}

func (d *evalDecoder) mutation(m *scenario.Mutation) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "op":
			var op string
			ok := d.str(&op)
			m.Op = scenario.Op(op)
			return ok
		case "link":
			return d.str(&m.Link)
		case "host":
			return d.str(&m.Host)
		case "bandwidth_factor":
			return d.float(&m.BandwidthFactor)
		case "latency_factor":
			return d.float(&m.LatencyFactor)
		case "bandwidth":
			m.Bandwidth = new(float64)
			return d.float(m.Bandwidth)
		case "latency":
			m.Latency = new(float64)
			return d.float(m.Latency)
		case "src":
			return d.str(&m.Src)
		case "dst":
			return d.str(&m.Dst)
		case "flows":
			var n int64
			ok := d.integer(&n, strconv.IntSize)
			m.Flows = int(n)
			return ok
		case "time":
			return d.integer(&m.Time, 64)
		}
		return false
	})
}

func (d *evalDecoder) query(q *EvalQuery) bool {
	return d.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "kind":
			return d.str(&q.Kind)
		case "transfers":
			q.Transfers, ok = array(d, &d.transfers, (*evalDecoder).transfer)
		case "bg":
			q.Background, ok = array(d, &d.pairs, (*evalDecoder).pair)
		case "hypotheses":
			q.Hypotheses, ok = array(d, &d.hypotheses, (*evalDecoder).hypothesis)
		}
		return ok
	})
}

func (d *evalDecoder) hypothesis(h *Hypothesis) bool {
	return d.object(func(key []byte) (ok bool) {
		if string(key) == "transfers" {
			h.Transfers, ok = array(d, &d.transfers, (*evalDecoder).transfer)
		}
		return ok
	})
}

func (d *evalDecoder) transfer(t *TransferRequest) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "src":
			return d.str(&t.Src)
		case "dst":
			return d.str(&t.Dst)
		case "size":
			return d.float(&t.Size)
		}
		return false
	})
}

// pair decodes a bg element: exactly two strings (json.Unmarshal zero-fills
// a shorter array and drops the rest of a longer one; both decline here).
func (d *evalDecoder) pair(p *[2]string) bool {
	return d.next('[') && d.str(&p[0]) && d.next(',') && d.str(&p[1]) && d.next(']')
}
