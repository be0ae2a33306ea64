package pilgrim

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
)

// This file is the Prometheus scrape surface. The repo deliberately
// carries no client_golang dependency: the text exposition format
// (version 0.0.4) is a few lines of escaping rules, and every value we
// export is already an atomic counter or a cheap snapshot — a hand-
// rolled writer keeps the server dependency-free and the format under
// test (TestMetricsExpositionContract).
//
// The stats structs cache_stats marshals are the one listing of the
// server's counters: each numeric or bool field carries a
// `metric:"<family>{<labels>}"` tag (the first field of a family also a
// `help:"…"` tag), and /metrics walks the same snapshot the JSON is
// marshalled from. `metric:"-"` keeps a field JSON-only. A family whose
// name ends in _total is a counter, any other a gauge.

// Label is one exposition label pair.
type Label struct{ Name, Value string }

// Exposition streams Prometheus text-format output. HELP and TYPE are
// written when the family name changes, so a family's samples must be
// added contiguously; a family that comes back after another was started
// is an ordering bug and panics.
type Exposition struct {
	b      strings.Builder
	family string
	closed map[string]bool
}

// Add appends one sample to the named family. help is written when the
// sample opens the family and ignored otherwise.
func (e *Exposition) Add(name, help string, value float64, labels ...Label) {
	ls := ""
	for i, l := range labels {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		ls += sep + l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	if ls != "" {
		ls += "}"
	}
	e.sample(name, help, ls, value)
}

// sample writes one sample line; labels is the rendered `{…}` set or "".
func (e *Exposition) sample(name, help, labels string, value float64) {
	if name != e.family {
		if e.closed[name] {
			panic(fmt.Sprintf("pilgrim: metric family %s added again after %s", name, e.family))
		}
		if help == "" {
			panic(fmt.Sprintf("pilgrim: metric family %s opened without help text", name))
		}
		if e.family != "" {
			if e.closed == nil {
				e.closed = make(map[string]bool)
			}
			e.closed[e.family] = true
		}
		e.family = name
		typ := "gauge"
		if strings.HasSuffix(name, "_total") {
			typ = "counter"
		}
		fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
	}
	e.b.WriteString(name)
	e.b.WriteString(labels)
	e.b.WriteByte(' ')
	e.b.WriteString(formatValue(value))
	e.b.WriteByte('\n')
}

// addFields appends every metric-tagged field of v, a struct or a
// pointer to one (nil emits nothing), in field order. Untagged struct
// fields are walked in place; string fields are never metrics. A numeric
// or bool field without a metric tag panics, so a new counter cannot
// miss /metrics.
func (e *Exposition) addFields(v reflect.Value) {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		var x float64
		switch k := fv.Kind(); {
		case k == reflect.Struct || k == reflect.Pointer:
			e.addFields(fv)
			continue
		case k == reflect.String:
			continue
		case k == reflect.Bool:
			if fv.Bool() {
				x = 1
			}
		case fv.CanInt():
			x = float64(fv.Int())
		case fv.CanUint():
			x = float64(fv.Uint())
		case fv.CanFloat():
			x = fv.Float()
		default:
			panic(fmt.Sprintf("pilgrim: stats field %s.%s of kind %s cannot be a metric", t, f.Name, fv.Kind()))
		}
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			panic(fmt.Sprintf("pilgrim: stats field %s.%s has no metric tag", t, f.Name))
		}
		if tag == "-" {
			continue
		}
		name, labels := tag, ""
		if j := strings.IndexByte(tag, '{'); j >= 0 {
			name, labels = tag[:j], tag[j:]
		}
		e.sample(name, f.Tag.Get("help"), labels, x)
	}
}

// WriteTo serves the document over HTTP with the exposition content
// type.
func (e *Exposition) WriteTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(e.b.String()))
}

// formatValue renders a sample value: integral values print without an
// exponent (the common case — counters), everything else in Go's
// shortest float form, which Prometheus parses.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes HELP text: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// handleMetrics is the Prometheus scrape endpoint:
//
//	GET /metrics
//
// It renders the cache_stats snapshot (s.stats) as text-exposition
// counters and gauges — the durable-store families only when the
// registry is WAL-backed — then the families with no cache_stats twin:
// the platform count and, when the server runs in a fleet, its shard
// identity.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var e Exposition
	e.addFields(reflect.ValueOf(s.stats()))
	e.Add("pilgrim_platforms", "Platforms registered on this worker.", float64(len(s.platforms.Names())))
	if id := s.shard.Load(); id != nil {
		e.Add("pilgrim_shard_info", "Shard identity of this worker (constant 1).", 1,
			Label{"shard", id.self}, Label{"workers", strconv.Itoa(id.table.Ring().Len())})
		e.Add("pilgrim_shard_misdirected_total", "Platform requests rejected with 421 (not this shard's platform).", float64(s.misdirected.Load()))
	}
	e.WriteTo(w)
}
