// Command benchdiff compares two benchjson documents (see cmd/benchjson)
// and fails when any benchmark present in both regressed beyond a
// threshold in ns/op — and, when -allocs-threshold is set, beyond a
// threshold in allocs/op. CI runs it after `make bench` against the
// committed BENCH_baseline.json, so a slowdown in a figure benchmark
// breaks the build instead of landing silently:
//
//	benchdiff [-threshold 0.25] [-allocs-threshold 0.1] [-count n] [-match regexp] baseline.json current.json
//
// The exit status is 1 when at least one benchmark slowed by more than
// threshold (default 25%) or, with -allocs-threshold > 0, allocated more
// than that fraction over baseline. Allocation counts are nearly
// deterministic, so the allocs threshold can sit far below the ns one —
// it is the gate that keeps the zero-allocation serving path from
// quietly re-growing. Improvements and new/removed benchmarks are
// reported but never fail the comparison; CI noise is expected, so the
// ns threshold should stay well above run-to-run jitter.
//
// With -count N both documents must hold at least N runs of every compared
// benchmark, folded by benchjson into a median and quartiles, and the ns
// gate becomes noise-aware: a slowdown fails only when it is beyond the
// threshold AND the medians differ by more than the baseline's own
// inter-quartile spread — two single samples can differ by more than that
// without anything having changed.
//
// A second mode asserts scaling ratios WITHIN one document — used by
// `make bench-fleet` to gate the sharded-fleet speedup, which cannot be
// compared across machines:
//
//	benchdiff -scale 'base,variant,minratio[;...]' current.json
//
// Each spec requires ns/op(base) / ns/op(variant) >= minratio, i.e. the
// variant must be at least minratio times faster than the base.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	Samples     int      `json:"samples"` // absent on a single run; load makes it 1
	NsQ1        float64  `json:"ns_per_op_q1"`
	NsQ3        float64  `json:"ns_per_op_q3"`
}

type doc struct {
	Benchmarks []entry `json:"benchmarks"`
}

func load(path string) (map[string]entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d doc
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]entry, len(d.Benchmarks))
	for _, b := range d.Benchmarks {
		if b.NsPerOp > 0 {
			b.Samples = max(b.Samples, 1)
			out[b.Name] = b
		}
	}
	return out, nil
}

// runScale is the single-document ratio mode: every "base,variant,min"
// spec must satisfy ns/op(base)/ns/op(variant) >= min. Returns the exit
// status.
func runScale(spec, path string) int {
	vals, err := load(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	failed := false
	for _, s := range strings.Split(spec, ";") {
		parts := strings.Split(strings.TrimSpace(s), ",")
		if len(parts) != 3 {
			fmt.Fprintf(os.Stderr, "benchdiff: bad -scale spec %q (want base,variant,minratio)\n", s)
			return 2
		}
		minRatio, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: bad ratio in %q: %v\n", s, err)
			return 2
		}
		base, ok := vals[parts[0]]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: %s not in %s\n", parts[0], path)
			return 2
		}
		variant, ok := vals[parts[1]]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: %s not in %s\n", parts[1], path)
			return 2
		}
		ratio := base.NsPerOp / variant.NsPerOp
		status := "ok"
		if ratio < minRatio {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("  %s / %s = %.2fx (want >= %.2fx)  %s\n", parts[0], parts[1], ratio, minRatio, status)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchdiff: scaling below the required ratio")
		return 1
	}
	return 0
}

func main() {
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated ns/op regression (0.25 = +25%)")
	allocsThreshold := flag.Float64("allocs-threshold", 0, "maximum tolerated allocs/op regression (0 = allocations not checked)")
	match := flag.String("match", "", "only compare benchmarks matching this regexp (default: all)")
	count := flag.Int("count", 1, "require this many runs of each benchmark on both sides (go test -count N) and fail only beyond the baseline's inter-quartile spread")
	scale := flag.String("scale", "", "ratio mode: 'base,variant,minratio[;...]' specs checked within ONE document")
	flag.Parse()
	if *scale != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -scale 'base,variant,minratio[;...]' current.json")
			os.Exit(2)
		}
		os.Exit(runScale(*scale, flag.Arg(0)))
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.25] [-count n] [-match re] baseline.json current.json")
		os.Exit(2)
	}
	var filter *regexp.Regexp
	if *match != "" {
		var err error
		if filter, err = regexp.Compile(*match); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)

	failed := false
	compared := 0
	for _, n := range names {
		if filter != nil && !filter.MatchString(n) {
			continue
		}
		now, ok := cur[n]
		if !ok {
			fmt.Printf("  %-45s removed from current run\n", n)
			continue
		}
		compared++
		delta := now.NsPerOp/base[n].NsPerOp - 1
		status, noise, spread := "ok", "", 0.0
		if *count > 1 {
			if base[n].Samples < *count || now.Samples < *count {
				fmt.Fprintf(os.Stderr, "benchdiff: %s has %d baseline and %d current runs, -count wants %d of each (go test -count %d)\n",
					n, base[n].Samples, now.Samples, *count, *count)
				os.Exit(2)
			}
			spread = base[n].NsQ3 - base[n].NsQ1
			noise = fmt.Sprintf("  (medians of %d and %d runs, baseline spread %.0f)", base[n].Samples, now.Samples, spread)
		}
		if delta > *threshold && now.NsPerOp-base[n].NsPerOp > spread {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("  %-45s %12.0f -> %12.0f ns/op  %+6.1f%%%s  %s\n", n, base[n].NsPerOp, now.NsPerOp, delta*100, noise, status)
		if *allocsThreshold > 0 && base[n].AllocsPerOp != nil && now.AllocsPerOp != nil && *base[n].AllocsPerOp > 0 {
			adelta := *now.AllocsPerOp / *base[n].AllocsPerOp - 1
			astatus := "ok"
			if adelta > *allocsThreshold {
				astatus = "FAIL"
				failed = true
			}
			fmt.Printf("  %-45s %12.0f -> %12.0f allocs/op  %+6.1f%%  %s\n", n, *base[n].AllocsPerOp, *now.AllocsPerOp, adelta*100, astatus)
		}
	}
	for n := range cur {
		if _, ok := base[n]; !ok && (filter == nil || filter.MatchString(n)) {
			fmt.Printf("  %-45s new (%.0f ns/op), not in baseline\n", n, cur[n].NsPerOp)
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmarks in common — wrong files?")
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: regression beyond %.0f%% detected\n", *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmarks within %.0f%% of baseline\n", compared, *threshold*100)
}
