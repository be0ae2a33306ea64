// Command pilgrimbench is the system benchmark: four named serving
// workloads driven over real loopback sockets against a pilgrimd-shaped
// server assembled in this process, five end-to-end metrics per workload,
// and an eleven-layer time budget from a separate traced run. See
// bench/README.md.
//
// Usage:
//
//	go run ./bench/pilgrimbench [-seed N] [-workload NAME] [-seconds N]
//	                            [-trace 0|1] [-json FILE] [-smoke]
//
// Without -workload every workload runs; without -trace each gets both
// its timed window and its traced run. With -workload the last line of
// standard output is one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics under -trace 0, the per-layer
// metrics under -trace 1 (the contract of BENCHMARK.json). The exit code
// is non-zero when any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// params is everything that shapes a run. The defaults are the contract
// (BENCHMARK.json records run_seconds); -smoke shrinks them for tier-1.
type params struct {
	seed   int64
	window time.Duration
	warmup time.Duration
	// setups is the number of fresh assemblies whose median is setup_s.
	setups int
	// tracedOps is how many ops the traced run replays; traceBudget stops
	// it early when a pass would outlast the run's time budget.
	tracedOps   int
	traceBudget time.Duration
	// preChecks is how many ops are byte-compared before the window.
	preChecks int
	// prepObs is how many observations the durable workload's data
	// directory holds before the timed restart.
	prepObs int
	// selfTolerance is how negative a layer's median self time may be, as
	// a share of its span, before the budget counts as not adding up.
	selfTolerance float64
	parity        bool

	repoRoot string
	workDir  string // data directories and the pilgrimd binary
	outDir   string // trace-<workload>.json
}

const (
	defaultSeconds = 20
	defaultWarmup  = 3 * time.Second
)

func defaultParams(root string) params {
	return params{
		seed: 1, window: defaultSeconds * time.Second, warmup: defaultWarmup,
		setups: 5, tracedOps: 2000, preChecks: 32, prepObs: 2000,
		selfTolerance: 0.05, parity: true,
		traceBudget: defaultSeconds * time.Second,
		repoRoot:    root,
		workDir:     filepath.Join(root, ".bench_build"),
		outDir:      filepath.Join(root, "bench", "out"),
	}
}

// smoke shrinks a run to what tier-1 can afford: it checks the wiring,
// the mixes and the correctness machinery, not the timings.
func (p params) smoke() params {
	p.window, p.warmup = 500*time.Millisecond, 200*time.Millisecond
	p.setups, p.tracedOps, p.preChecks, p.prepObs = 1, 100, 20, 200
	// Medians over a handful of ops on a box busy with the rest of
	// `go test ./...` are noisier than the real run's.
	p.selfTolerance = 0.25
	p.parity = false
	p.traceBudget = 10 * time.Second
	return p
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerRow is one layer of the traced run's table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	BusyUs float64 `json:"busy_us"`
	SelfUs float64 `json:"self_us"`
	Share  float64 `json:"share_of_wire"`
}

// workloadReport is everything one workload's run produced.
type workloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	InputSize string   `json:"input_size"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	EndToEnd []metric `json:"end_to_end,omitempty"`
	// PerLayer is what the driver's result line carries under -trace 1;
	// Layers is the full table of the traced run (see layerTable).
	PerLayer    []metric   `json:"per_layer,omitempty"`
	Layers      []layerRow `json:"layers,omitempty"`
	StoreOpenUs float64    `json:"store_open_us,omitempty"`

	Samples             int       `json:"samples,omitempty"`
	MinSubWindowSamples int       `json:"min_sub_window_samples,omitempty"`
	P99Backed           bool      `json:"p99_has_10_samples_beyond_it"`
	SetupSeconds        []float64 `json:"setup_seconds,omitempty"`
	CalibBeforeNs       int64     `json:"calib_ns_before"`
	CalibAfterNs        int64     `json:"calib_ns_after"`
	TraceFile           string    `json:"trace_file,omitempty"`
	TracedOps           int       `json:"traced_ops,omitempty"`
}

func (r *workloadReport) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 16 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// absorb folds a session's accounting into the report.
func (r *workloadReport) absorb(s *session) {
	r.Attempted += s.attempted.Load()
	r.Failed += s.failed.Load()
	if s.failed.Load() > 0 {
		r.Correct = false
	}
	for _, n := range s.notes {
		if len(r.Failures) < 16 {
			r.Failures = append(r.Failures, n)
		}
	}
}

type report struct {
	Record    runRecord         `json:"record"`
	Checks    checksReport      `json:"checks"`
	Workloads []*workloadReport `json:"workloads"`
}

type checksReport struct {
	Accuracy     *accuracyCheck `json:"paper_accuracy,omitempty"`
	BinaryParity string         `json:"binary_parity"`
	Errors       []string       `json:"errors,omitempty"`
}

func (r *report) correct() bool {
	if len(r.Checks.Errors) > 0 {
		return false
	}
	for _, w := range r.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// bench is one invocation.
type bench struct {
	p       params
	world   *world
	dirs    int
	runRoot string
	// prepared caches each durable workload's prepared data directory.
	prepared map[string]string
}

func newBench(p params) (*bench, error) {
	if runtime.NumCPU() < clients {
		return nil, fmt.Errorf("pilgrimbench needs at least %d CPUs (have %d): below that the numbers measure the scheduler, not the program", clients, runtime.NumCPU())
	}
	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return nil, err
	}
	runRoot, err := os.MkdirTemp(p.workDir, "run-")
	if err != nil {
		return nil, err
	}
	return &bench{p: p, world: w, runRoot: runRoot, prepared: make(map[string]string)}, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.runRoot) }

// freshDir names a new, not yet created, directory under the run root.
func (b *bench) freshDir() string {
	b.dirs++
	return filepath.Join(b.runRoot, fmt.Sprintf("data-%d", b.dirs))
}

// prepare builds (once) the data directory a durable workload restarts
// from: an untimed pass logs prepObs observations through
// Registry.ObserveLinkState and closes.
func (b *bench) prepare(wl *workload) (string, error) {
	if !wl.durable {
		return "", nil
	}
	if dir, ok := b.prepared[wl.name]; ok {
		return dir, nil
	}
	dir := b.freshDir()
	a, err := assemble(assembleOptions{dataDir: dir})
	if err != nil {
		return "", err
	}
	for k := 0; k < b.p.prepObs; k++ {
		if _, err := a.registry.ObserveLinkState(platformName, writeEpoch0+int64(k), writeSource, wl.churn.updates(uint64(k))); err != nil {
			a.registry.Close()
			return "", fmt.Errorf("preparing observation %d: %w", k, err)
		}
	}
	if err := a.registry.Close(); err != nil {
		return "", err
	}
	b.prepared[wl.name] = dir
	return dir, nil
}

// stage gives a durable workload its own copy of the prepared data
// directory (untimed: a restart finds its directory in place).
func (b *bench) stage(wl *workload) (dataDir string, prepared uint64, err error) {
	if !wl.durable {
		return "", 0, nil
	}
	prepDir, err := b.prepare(wl)
	if err != nil {
		return "", 0, err
	}
	dataDir = b.freshDir()
	return dataDir, uint64(b.p.prepObs), copyDir(prepDir, dataDir)
}

// bringUp assembles a fresh server for wl (restarting from a copy of the
// prepared directory when durable) and serves it, through the traced
// run's handler wrapper when tr is set.
func (b *bench) bringUp(wl *workload, o assembleOptions, tr *tracer) (*live, *session, error) {
	dir, prepared, err := b.stage(wl)
	if err != nil {
		return nil, nil, err
	}
	o.dataDir = dir
	return serveAssembly(wl, o, tr, prepared)
}

func serveAssembly(wl *workload, o assembleOptions, tr *tracer, prepared uint64) (*live, *session, error) {
	a, err := assemble(o)
	if err != nil {
		return nil, nil, err
	}
	handler := a.handler(tr)
	lv, err := a.serve(handler)
	if err != nil {
		a.registry.Close()
		return nil, nil, err
	}
	return lv, newSession(wl, lv, prepared), nil
}

// timedRun is the tracing-off measurement of one workload: setup_s from
// fresh assemblies, byte checks, warm-up, the measured window.
func (b *bench) timedRun(wl *workload, rep *workloadReport) error {
	if _, err := b.prepare(wl); err != nil {
		return err
	}
	var lv *live
	var sess *session
	for i := 0; i < b.p.setups; i++ {
		if lv != nil {
			if err := lv.stop(); err != nil {
				return err
			}
		}
		// setup_s: from the start of assembly to the first byte-correct
		// answer to the workload's first request — cold routes, empty
		// engine pool, and for a durable workload a recovery.
		dir, prepared, err := b.stage(wl)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if lv, sess, err = serveAssembly(wl, assembleOptions{dataDir: dir}, nil, prepared); err != nil {
			return err
		}
		c := newClient(lv.base)
		r := sess.send(c, sess.next.Add(1)-1)
		elapsed := time.Since(t0)
		ok := sess.verify(&r, true)
		c.close()
		if !ok {
			rep.absorb(sess)
			lv.stop()
			return fmt.Errorf("set-up %d: the first answer is not byte-correct", i)
		}
		rep.SetupSeconds = append(rep.SetupSeconds, elapsed.Seconds())
		if i < b.p.setups-1 {
			rep.absorb(sess)
		}
	}
	defer lv.stop()

	if wl.repeats > 0 {
		if err := sess.pinRepeats(wl.repeats); err != nil {
			return err
		}
	}
	c := newClient(lv.base)
	for sess.next.Load() < uint64(b.p.preChecks) {
		r := sess.send(c, sess.next.Add(1)-1)
		sess.verify(&r, true)
	}
	c.close()

	st := measure(sess.loop(b.p.warmup+b.p.window), b.p.warmup, b.p.window)

	if wl.durable {
		tl, _ := lv.registry.TimelineStats(platformName)
		if got, want := tl.Appends-uint64(b.p.prepObs), sess.acked.Load(); got != want {
			sess.fail("timeline appended %d epochs, clients hold %d acknowledged writes", got, want)
		}
	}
	rep.absorb(sess)
	rep.Samples, rep.MinSubWindowSamples, rep.P99Backed = st.samples, st.minSubCount, st.p99Backed
	failedShare := 0.0
	if st.attempted > 0 {
		failedShare = float64(st.failed) / float64(st.attempted)
	}
	rep.EndToEnd = []metric{
		{"req_per_s", st.reqPerS, "1/s"},
		{"p50_us", st.p50us, "us"},
		{"p99_us", st.p99us, "us"},
		{"failed_share", failedShare, "ratio"},
		{"setup_s", median(rep.SetupSeconds), "s"},
	}
	if st.samples == 0 {
		rep.fail("the measured window holds no correctly answered request")
	}
	return nil
}

// run executes the selected workloads and checks. trace: 0 timed windows
// only, 1 traced runs only, -1 both.
func run(p params, only string, trace int, out io.Writer) (*report, error) {
	b, err := newBench(p)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	rep := &report{Record: newRunRecord(p)}
	printRecord(out, rep.Record)

	var selected []*workload
	for _, wl := range b.world.workloads(p.seed) {
		if only == "" || only == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	for _, wl := range selected {
		wr := &workloadReport{Name: wl.name, Why: wl.why, InputSize: wl.sizeNote, Correct: true}
		rep.Workloads = append(rep.Workloads, wr)
		wr.CalibBeforeNs = calibrate()
		if trace != 1 {
			if err := b.timedRun(wl, wr); err != nil {
				wr.fail("timed run: %v", err)
			}
		}
		if trace != 0 {
			if err := b.tracedRun(wl, wr); err != nil {
				wr.fail("traced run: %v", err)
			}
		}
		wr.CalibAfterNs = calibrate()
		printWorkload(out, wr)
	}

	acc, err := checkAccuracy()
	rep.Checks.Accuracy = &acc
	if err != nil {
		rep.Checks.Errors = append(rep.Checks.Errors, err.Error())
	}
	rep.Checks.BinaryParity = "skipped"
	if p.parity {
		rep.Checks.BinaryParity = "identical"
		if err := b.parityProbe(selected); err != nil {
			rep.Checks.BinaryParity = "differs"
			rep.Checks.Errors = append(rep.Checks.Errors, err.Error())
		}
	}
	printChecks(out, rep.Checks)
	return rep, nil
}

func printRecord(out io.Writer, r runRecord) {
	fmt.Fprintf(out, "pilgrimbench commit=%s seed=%d window=%gs warmup=%gs %s cpu=%q nproc=%d GOMAXPROCS=%d load1=%s\n",
		r.Commit, r.Seed, r.WindowSeconds, r.WarmupSeconds, r.GoVersion, r.CPUModel, r.NProc, r.GOMAXPROCS, r.Load1)
}

func printWorkload(out io.Writer, w *workloadReport) {
	fmt.Fprintf(out, "\nworkload %s (%s)\n  why: %s\n", w.Name, w.InputSize, w.Why)
	fmt.Fprintf(out, "  correct=%v attempted=%d failed=%d calib_ns=%d/%d\n", w.Correct, w.Attempted, w.Failed, w.CalibBeforeNs, w.CalibAfterNs)
	for _, f := range w.Failures {
		fmt.Fprintf(out, "  FAILURE: %s\n", f)
	}
	if len(w.EndToEnd) > 0 {
		fmt.Fprintf(out, "  end to end (samples=%d, smallest sub-window=%d, p99 backed by 10 samples beyond it=%v):\n",
			w.Samples, w.MinSubWindowSamples, w.P99Backed)
		for _, m := range w.EndToEnd {
			fmt.Fprintf(out, "    %-14s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	if len(w.Layers) > 0 {
		fmt.Fprintf(out, "  per layer (traced ops=%d, spans in %s):\n", w.TracedOps, w.TraceFile)
		fmt.Fprintf(out, "    %-18s %8s %12s %12s %8s\n", "layer", "calls", "busy_us", "self_us", "share")
		for _, l := range w.Layers {
			fmt.Fprintf(out, "    %-18s %8d %12.3f %12.3f %8.4f\n", l.Layer, l.Calls, l.BusyUs, l.SelfUs, l.Share)
		}
		fmt.Fprintf(out, "    %-34s %14.4f us\n", "store.open_us", w.StoreOpenUs)
		for _, m := range w.PerLayer {
			if !strings.HasSuffix(m.Name, ".calls") && !strings.HasSuffix(m.Name, ".busy_us") &&
				!strings.HasSuffix(m.Name, ".self_us") && !strings.HasSuffix(m.Name, ".share") {
				fmt.Fprintf(out, "    %-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
			}
		}
	}
}

func printChecks(out io.Writer, c checksReport) {
	if a := c.Accuracy; a != nil {
		fmt.Fprintf(out, "\ncheck paper_accuracy: n=%d median|log error|=%.4f stddev=%.4f share<0.575=%.4f repeats_exactly=%v (%.2fs; paper 0.149 / 0.532 / 0.74)\n",
			a.N, a.MedianAbsError, a.StdDevError, a.FractionBelow0575, a.Repeats, a.Seconds)
	}
	fmt.Fprintf(out, "check binary_parity: %s\n", c.BinaryParity)
	for _, e := range c.Errors {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", e)
	}
}

// resultLine is the driver contract's last line for one workload.
func resultLine(w *workloadReport, correct bool, trace int) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if trace != 1 {
		for _, m := range w.EndToEnd {
			if m.Name != "failed_share" { // carried by attempted/failed
				metrics[m.Name] = value{m.Value, m.Unit}
			}
		}
	}
	if trace != 0 {
		for _, m := range w.PerLayer {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	for name, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	attempted := w.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct && w.Correct, attempted, w.Failed, metrics})
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module pilgrim\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no pilgrim module root above the working directory")
		}
		dir = parent
	}
}

func main() {
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	only := flag.String("workload", "", "run one workload (poll-hit, cold-miss, whatif-grid, ingest-churn); default all")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", -1, "0: timed window only; 1: traced run only; default both")
	jsonPath := flag.String("json", "", "also write the full report to this file")
	smoke := flag.Bool("smoke", false, "tier-1 mode: 0.5 s windows, 100 traced ops, no binary-parity probe")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pilgrimbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "pilgrimbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	p := defaultParams(root)
	p.seed = *seed
	p.window = time.Duration(*seconds) * time.Second
	p.traceBudget = p.window
	if *smoke {
		p = p.smoke()
	}

	rep, err := run(p, *only, *trace, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pilgrimbench:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pilgrimbench:", err)
			os.Exit(1)
		}
	}
	ok := rep.correct()
	fmt.Println()
	for _, w := range rep.Workloads {
		line, err := resultLine(w, ok, *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pilgrimbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}
