package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pilgrim/internal/experiments"
	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
	"pilgrim/internal/testbed"
)

// This file holds the checks that ride along with every run but are not
// timed: the paper-accuracy exact-repeat check, the binary-parity probe,
// and the run record that makes a noisy box visible.

// The paper's global accuracy statistics (§V-B) as this repository's
// simulator reproduces them over the full Figs. 3–11 campaign: median
// |log error|, standard deviation of the errors, share of |errors| under
// 0.575 (paper: 0.149 / 0.532 / 0.74). The simulator and the emulated
// testbed are deterministic, so a run that computes anything else has
// changed a simulated statistic, and fails.
const (
	wantAccuracyN         = 12000
	wantMedianAbsError    = 0.06806346909830796
	wantStdDevError       = 0.34098200859438044
	wantFractionBelow0575 = 0.83875
)

// accuracyCheck is the recorded outcome of the campaign.
type accuracyCheck struct {
	N                 int     `json:"n"`
	MedianAbsError    float64 `json:"median_abs_log_error"`
	StdDevError       float64 `json:"stddev_log_error"`
	FractionBelow0575 float64 `json:"share_below_0.575"`
	Seconds           float64 `json:"seconds"`
	Repeats           bool    `json:"repeats_exactly"`
}

// checkAccuracy runs the Figs. 3–11 campaign once and compares its global
// statistics with the recorded ones, bit for bit.
func checkAccuracy() (accuracyCheck, error) {
	t0 := time.Now()
	ref := g5k.Default()
	plat, err := platgen.Generate(ref, platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		return accuracyCheck{}, err
	}
	runner, err := experiments.NewRunner(ref, testbed.DefaultConfig(),
		pilgrim.PlatformEntry{Platform: plat, Config: sim.DefaultConfig()})
	if err != nil {
		return accuracyCheck{}, err
	}
	var results []*experiments.Result
	for _, spec := range experiments.Figures() {
		res, err := runner.RunFigure(spec)
		if err != nil {
			return accuracyCheck{}, fmt.Errorf("%s: %w", spec.ID, err)
		}
		results = append(results, res)
	}
	sum := experiments.Summarize(results)
	c := accuracyCheck{
		N: sum.N, MedianAbsError: sum.MedianAbsError, StdDevError: sum.StdDevError,
		FractionBelow0575: sum.FractionBelow0575, Seconds: time.Since(t0).Seconds(),
	}
	c.Repeats = c.N == wantAccuracyN && c.MedianAbsError == wantMedianAbsError &&
		c.StdDevError == wantStdDevError && c.FractionBelow0575 == wantFractionBelow0575
	if !c.Repeats {
		return c, fmt.Errorf("paper accuracy moved: n=%d median|err|=%v stddev=%v share<0.575=%v, recorded n=%d %v %v %v",
			c.N, c.MedianAbsError, c.StdDevError, c.FractionBelow0575,
			wantAccuracyN, wantMedianAbsError, wantStdDevError, wantFractionBelow0575)
	}
	return c, nil
}

// parityProbe builds cmd/pilgrimd, starts it with only -addr, -platforms
// g5k_test and (for a durable workload's write) -data-dir, and requires its
// answer to each workload's probe ops to equal the in-process assembly's —
// so the harness's copy of run() cannot drift from the shipped daemon.
// Epoch ids are normalized: they count allocations in a process, and the
// daemon has made fewer.
func (b *bench) parityProbe(wls []*workload) error {
	bin := filepath.Join(b.p.workDir, "pilgrimd")
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/pilgrimd")
	build.Dir = b.p.repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/pilgrimd: %v\n%s", err, out)
	}
	for _, wl := range wls {
		if err := b.probeOne(bin, wl); err != nil {
			return fmt.Errorf("binary parity, %s: %w", wl.name, err)
		}
	}
	return nil
}

func (b *bench) probeOne(bin string, wl *workload) error {
	// Both sides start from nothing: parity is about the assembly, not
	// about recovery, so a durable probe gets two empty data directories.
	var daemonDir, localDir string
	if wl.durable {
		daemonDir, localDir = b.freshDir(), b.freshDir()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close() // the daemon takes the port over; nothing else on this box races for it
	args := []string{"-addr", addr, "-platforms", platformName}
	if wl.durable {
		args = append(args, "-data-dir", daemonDir)
	}
	var logs bytes.Buffer
	daemon := exec.Command(bin, args...)
	daemon.Stdout, daemon.Stderr = &logs, &logs
	if err := daemon.Start(); err != nil {
		return err
	}
	defer func() {
		_ = daemon.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { _ = daemon.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = daemon.Process.Kill()
			<-done
		}
	}()
	remote := newClient("http://" + addr)
	defer remote.close()
	ready := false
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if status, _, err := remote.do("GET", "/pilgrim/platforms", nil); err == nil && status == 200 {
			ready = true
			break
		}
	}
	if !ready {
		return fmt.Errorf("pilgrimd did not come up on %s:\n%s", addr, logs.String())
	}

	a, err := assemble(assembleOptions{dataDir: localDir})
	if err != nil {
		return err
	}
	lv, err := a.serve(a.server)
	if err != nil {
		a.registry.Close()
		return err
	}
	defer lv.stop()
	local := newClient(lv.base)
	defer local.close()

	// A durable workload probes its write and the read that follows it.
	sess := newSession(wl, lv, 0)
	probes := 1
	if wl.durable {
		probes = 2
	}
	for n := uint64(0); n < uint64(probes); n++ {
		r := sess.send(local, n)
		if r.err != nil || r.status != 200 {
			return fmt.Errorf("in-process probe %d: status %d, %v", n, r.status, r.err)
		}
		mine := normalizeEpochs(append([]byte(nil), r.answer...))
		status, theirs, err := remote.do(r.o.method, r.o.path, r.o.body)
		if err != nil || status != 200 {
			return fmt.Errorf("pilgrimd probe %d: status %d, %v: %s", n, status, err, firstLine(theirs))
		}
		if err := sameBytes(normalizeEpochs(theirs), mine); err != nil {
			return fmt.Errorf("probe %d: pilgrimd's %v", n, err)
		}
	}
	return nil
}

// runRecord is carried by every output: enough to tell a noisy box or a
// different box from a regression. Recorded only; it gates nothing.
type runRecord struct {
	Commit        string  `json:"commit"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	GoVersion     string  `json:"go_version"`
	CPUModel      string  `json:"cpu_model"`
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Load1         string  `json:"load1_at_start"`
	Started       string  `json:"started"`
}

func newRunRecord(p params) runRecord {
	return runRecord{
		Commit: commit(p.repoRoot), Seed: p.seed,
		WindowSeconds: p.window.Seconds(), WarmupSeconds: p.warmup.Seconds(),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Load1: load1(), Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the checked-out revision, or "unknown" outside a git checkout
// (the benchmark driver runs from an exported tree).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func load1() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	first, _, _ := strings.Cut(string(data), " ")
	return first
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (xorshift, no memory traffic). It
// runs before and after each workload: a noisy neighbour shows up as a
// changed calib_ns in the record instead of passing for a regression.
func calibrate() int64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return int64(time.Since(t0))
}
