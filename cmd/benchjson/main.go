// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout, one entry per benchmark:
//
//	go test -run '^$' -bench . -benchmem . | benchjson > BENCH_$(git rev-parse --short HEAD).json
//
// Each entry carries ns/op, B/op and allocs/op (when -benchmem was on)
// plus any custom ReportMetric values. `make bench` uses this to leave a
// machine-readable performance record per commit, so regressions are a
// `git diff` away.
//
// A benchmark that ran more than once (`go test -count N`) folds into one
// entry: every value is the median of its runs, and the entry also carries
// the run count and the quartiles of ns/op — the spread cmd/benchdiff
// -count judges a difference against.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark result.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsSper *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Samples, NsQ1 and NsQ3 are set only on a folded entry.
	Samples int     `json:"samples,omitempty"`
	NsQ1    float64 `json:"ns_per_op_q1,omitempty"`
	NsQ3    float64 `json:"ns_per_op_q3,omitempty"`
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
	pos := float64(q * float64(len(sorted)-1))
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + float64((pos-float64(lo))*(sorted[lo+1]-sorted[lo]))
}

func median(vals []float64) float64 {
	sort.Float64s(vals)
	return quantile(vals, 0.5)
}

// fold collapses the runs of one benchmark into a single entry.
func fold(runs []Entry) Entry {
	if len(runs) == 1 {
		return runs[0]
	}
	out := Entry{Name: runs[0].Name, Iterations: runs[0].Iterations, Samples: len(runs)}
	var ns, bytes, allocs []float64
	metrics := make(map[string][]float64)
	for _, r := range runs {
		ns = append(ns, r.NsPerOp)
		if r.BytesPerOp != nil {
			bytes = append(bytes, *r.BytesPerOp)
		}
		if r.AllocsSper != nil {
			allocs = append(allocs, *r.AllocsSper)
		}
		for unit, v := range r.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	sort.Float64s(ns)
	out.NsPerOp, out.NsQ1, out.NsQ3 = quantile(ns, 0.5), quantile(ns, 0.25), quantile(ns, 0.75)
	if len(bytes) > 0 {
		v := median(bytes)
		out.BytesPerOp = &v
	}
	if len(allocs) > 0 {
		v := median(allocs)
		out.AllocsSper = &v
	}
	for unit, vals := range metrics {
		if out.Metrics == nil {
			out.Metrics = make(map[string]float64)
		}
		out.Metrics[unit] = median(vals)
	}
	return out
}

func main() {
	var out struct {
		Goos       string  `json:"goos,omitempty"`
		Goarch     string  `json:"goarch,omitempty"`
		Pkg        string  `json:"pkg,omitempty"`
		CPU        string  `json:"cpu,omitempty"`
		Benchmarks []Entry `json:"benchmarks"`
	}
	var names []string // first-seen order
	runs := make(map[string][]Entry)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			out.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBench(line); ok {
				if runs[e.Name] == nil {
					names = append(names, e.Name)
				}
				runs[e.Name] = append(runs[e.Name], e)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	for _, name := range names {
		out.Benchmarks = append(out.Benchmarks, fold(runs[name]))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench decodes one result line, e.g.
//
//	BenchmarkFoo-8  100  12345 ns/op  678 B/op  9 allocs/op  1.5 widgets/op
func parseBench(line string) (Entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Entry{}, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = val
		case "B/op":
			v := val
			e.BytesPerOp = &v
		case "allocs/op":
			v := val
			e.AllocsSper = &v
		default:
			if e.Metrics == nil {
				e.Metrics = make(map[string]float64)
			}
			e.Metrics[unit] = val
		}
	}
	return e, true
}
