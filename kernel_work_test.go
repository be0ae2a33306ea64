package pilgrim_bench

import (
	"hash/fnv"
	"math"
	"testing"

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
