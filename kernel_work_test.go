package pilgrim_bench

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"pilgrim/internal/pilgrim"
	"pilgrim/internal/sim"
)

// TestCold60CrossSiteWork pins the kernel's work, not its time, on
// BenchmarkCold60CrossSite's ring of 64 distinct 60-transfer requests: the
// summed solver counters and a digest of every completion date's bits
// must equal the recorded figures. A change that moves one of them
// changed what the kernel computes (or how much of it), not only what
// that costs. The digest and Resharings have not moved since they were
// first recorded; the work counters fell when slack links stopped being
// re-filled.
func TestCold60CrossSiteWork(t *testing.T) {
	setup(t)
	snap := entry.Platform.Snapshot()
	var sum sim.SharingStats
	digest := fnv.New64a()
	var buf [8]byte
	for _, req := range crossSiteRing() {
		s := sim.NewPooledSnapshotSimulation(snap, entry.Config)
		for _, tr := range req {
			s.AddTransfer(tr.Src, tr.Dst, tr.Size)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			bits := math.Float64bits(r.Completion)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			digest.Write(buf[:])
		}
		st := s.Engine().SharingStats()
		sum.Resharings += st.Resharings
		sum.VariablesTouched += st.VariablesTouched
		sum.Rounds += st.Rounds
		sum.WarmSolves += st.WarmSolves
		sum.VariablesKept += st.VariablesKept
		s.Release()
	}
	want := sim.SharingStats{
		Resharings:       4096,  // 64 per request
		VariablesTouched: 54891, // ~858 per request (59487 before slack links were screened)
		Rounds:           17291, // ~270 per request (21467)
		WarmSolves:       1744,  // ~27 per request (1834)
		VariablesKept:    25323, // ~396 per request (30567)
	}
	if sum != want {
		t.Errorf("summed solver work over the ring\n got %+v\nwant %+v", sum, want)
	}
	if got, want := digest.Sum64(), uint64(0x7c32c84e447e7ff0); got != want {
		t.Errorf("completion-date digest %#x, want %#x", got, want)
	}
}

// TestEvaluateGridWork pins what BenchmarkHTTPEvaluate30x8/fresh's ring of
// 64 what-if grids computes, on a server of its own: an FNV-64a digest of
// every answer byte (epoch ids, which come from a process-wide counter,
// numbered by first appearance), and how many transfers the server
// simulated for them. The digest was recorded before forked and cold
// cells re-ran only the transfers their delta reaches, when every one of
// the 5 simulations per grid ran all 30 transfers.
func TestEvaluateGridWork(t *testing.T) {
	s, srv := benchServer(t)
	url := srv.URL + "/pilgrim/evaluate/g5k_test"
	grid := evaluateGrid30x8(t)
	digest := fnv.New64a()
	for n := 1; n <= 64; n++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(grid(n))))
		if w.Code != http.StatusOK {
			t.Fatalf("grid %d: status %d: %s", n, w.Code, w.Body.Bytes())
		}
		digest.Write(numberEpochs(w.Body.Bytes()))
	}
	if got, want := digest.Sum64(), uint64(0x10ac2133d67306ac); got != want {
		t.Errorf("answer digest %#x, want %#x", got, want)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, srv.URL+"/pilgrim/cache_stats", nil))
	var st struct {
		Workers pilgrim.WorkerStats `json:"forecast_workers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	// Per grid: the base run's 30 transfers plus the four run cells'.
	type work struct{ Sims, Rerun, Copied uint64 }
	got := work{st.Workers.EvaluateSims, st.Workers.EvaluateTransfersRerun, st.Workers.EvaluateTransfersCopied}
	if want := (work{Sims: 320, Rerun: 1255, Copied: 6425}); got != want {
		t.Errorf("work over the ring %+v, want %+v (transfers simulated per grid: %.2f)",
			got, want, float64(64*30+got.Rerun)/64)
	}
}

var epochField = regexp.MustCompile(`"epoch": [0-9]+`)

// numberEpochs rewrites every "epoch": N to its order of first appearance.
func numberEpochs(b []byte) []byte {
	seen := map[string]int{}
	return epochField.ReplaceAllFunc(b, func(m []byte) []byte {
		k, ok := seen[string(m)]
		if !ok {
			k = len(seen)
			seen[string(m)] = k
		}
		return []byte(`"epoch": #` + strconv.Itoa(k))
	})
}
