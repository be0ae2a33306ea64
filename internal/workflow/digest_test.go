package workflow

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
)

// forecastDigest pins the schedules of digestWorkflows seeded random DAGs
// on g5k_test: every task's start and finish and every makespan, bit for
// bit. It was computed with the engine's per-activity completion callbacks
// driving the DAG and must never change: a differing digest means the way
// dependents are started (their activity ids, start dates or the order
// they enter the event heap) moved a forecast.
const forecastDigest = "cf8c5f93e593ba263966908ff0ecb8f23862da470b3556ecf85678c98da1cc9c"

const digestWorkflows = 240

// randomWorkflow draws a DAG over a handful of g5k_test hosts: compute and
// transfer tasks, each depending on up to three earlier tasks (fan-in;
// fan-out follows from several tasks picking the same parent), with some
// tasks repeated verbatim under a new id so that completions tie.
func randomWorkflow(rng *rand.Rand, hosts []*platform.Host, seed int64) (*Workflow, [][2]string) {
	pool := make([]string, 3+rng.Intn(5))
	for i, j := range rng.Perm(len(hosts))[:len(pool)] {
		pool[i] = hosts[j].ID
	}
	pair := func() (string, string) {
		a := rng.Intn(len(pool))
		b := rng.Intn(len(pool) - 1)
		if b >= a {
			b++
		}
		return pool[a], pool[b]
	}
	w := &Workflow{Name: fmt.Sprintf("dag%d", seed)}
	for i, n := 0, 3+rng.Intn(14); i < n; i++ {
		var t Task
		if i > 0 && rng.Intn(5) == 0 {
			t = w.Tasks[rng.Intn(i)]
			t.DependsOn = append([]string(nil), t.DependsOn...)
		} else if rng.Intn(2) == 0 {
			t = Task{Kind: Compute, Host: pool[rng.Intn(len(pool))], Flops: 1e9 * (0.1 + 3*rng.Float64())}
		} else {
			src, dst := pair()
			t = Task{Kind: TransferData, Src: src, Dst: dst, Bytes: math.Exp(rng.Float64()*9) * 1e4}
		}
		t.ID = fmt.Sprintf("t%d", i)
		if len(t.DependsOn) == 0 && i > 0 {
			for d := rng.Intn(4); d > 0; d-- {
				t.DependsOn = append(t.DependsOn, fmt.Sprintf("t%d", rng.Intn(i)))
			}
		}
		w.Tasks = append(w.Tasks, t)
	}
	var background [][2]string
	if rng.Intn(3) == 0 {
		src, dst := pair()
		background = append(background, [2]string{src, dst})
	}
	return w, background
}

// TestForecastDigestG5K hashes the forecasts of seeded random workflows on
// the generated g5k_test platform against a digest committed from an
// earlier implementation of the DAG runner.
func TestForecastDigestG5K(t *testing.T) {
	p, err := platgen.Generate(g5k.Default(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	hosts := p.Hosts()
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	fanIn, withBackground, tiedStarts := 0, 0, 0
	for seed := int64(0); seed < digestWorkflows; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, background := randomWorkflow(rng, hosts, seed)
		for _, tk := range w.Tasks {
			if len(tk.DependsOn) > 1 {
				fanIn++
			}
		}
		if len(background) > 0 {
			withBackground++
		}
		f, err := PredictWithBackground(snap, sim.DefaultConfig(), w, background)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		starts := map[float64]int{}
		for _, s := range f.Tasks {
			put(s.Start)
			put(s.Finish)
			if s.Start > 0 {
				if starts[s.Start]++; starts[s.Start] == 2 {
					tiedStarts++
				}
			}
		}
		put(f.Makespan)
	}
	// Dependents started at one instant by several completions of one
	// event batch are where the runner's ordering is visible.
	if fanIn == 0 || withBackground == 0 || tiedStarts == 0 {
		t.Fatalf("coverage hole: %d fan-in tasks, %d workflows with background traffic, %d tied mid-run starts",
			fanIn, withBackground, tiedStarts)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != forecastDigest {
		t.Errorf("digest %s, want %s", got, forecastDigest)
	}
}
