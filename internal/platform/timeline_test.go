package platform

import (
	"errors"
	"testing"
)

// TestTimelineAtTime checks the temporal lookup semantics: AtTime answers
// the newest observation at or before t, earlier times answer the base
// epoch, and equal-timestamp appends resolve to the latest one.
func TestTimelineAtTime(t *testing.T) {
	p := buildMixedPlatform(t, 4)
	base := p.Snapshot()
	tl := NewTimeline(base, 8)

	if tl.Latest() != base || tl.AtTime(12345) != base {
		t.Fatal("empty timeline must answer the base epoch everywhere")
	}
	if _, ok := tl.LatestTime(); ok {
		t.Fatal("empty timeline has no latest time")
	}

	link := "lyon-0_nic"
	li, _ := base.LinkIndex(link)
	steps := []struct {
		t  int64
		bw float64
	}{{100, 1e6}, {200, 2e6}, {200, 3e6}, {500, 4e6}}
	for _, s := range steps {
		if _, err := tl.Append(s.t, "test", []LinkUpdate{{Link: link, Bandwidth: s.bw, Latency: -1}}); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		at   int64
		want float64
	}{
		{99, base.LinkBandwidth(li)},
		{100, 1e6},
		{150, 1e6},
		{200, 3e6}, // equal timestamps: latest append wins
		{499, 3e6},
		{500, 4e6},
		{1 << 40, 4e6},
	} {
		if got := tl.AtTime(c.at).LinkBandwidth(li); got != c.want {
			t.Errorf("AtTime(%d): bandwidth %v, want %v", c.at, got, c.want)
		}
	}
	if lt, ok := tl.LatestTime(); !ok || lt != 500 {
		t.Fatalf("LatestTime = %d, %v; want 500, true", lt, ok)
	}
	if tl.Latest() != tl.AtTime(500) {
		t.Fatal("Latest must be the newest retained epoch")
	}

	// Ordering: older-than-head observations are rejected.
	if _, err := tl.Append(499, "late", nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order append: err = %v, want ErrOutOfOrder", err)
	}
	// Unknown links are rejected without touching the history.
	if _, err := tl.Append(600, "bad", []LinkUpdate{{Link: "ghost", Bandwidth: 1}}); err == nil {
		t.Fatal("unknown link must fail")
	}
	if st := tl.Stats(); st.Appends != 4 || st.Depth != 4 {
		t.Fatalf("failed appends must not count: %+v", st)
	}
}

// TestTimelineEviction checks the depth bound: the ring drops oldest
// entries, lookups before the retained window fall back to the base
// epoch, and the stats record the churn.
func TestTimelineEviction(t *testing.T) {
	p := buildMixedPlatform(t, 4)
	base := p.Snapshot()
	tl := NewTimeline(base, 4)
	link := "nancy-1_nic"
	li, _ := base.LinkIndex(link)

	for i := 1; i <= 10; i++ {
		if _, err := tl.Append(int64(i*100), "probe", []LinkUpdate{{Link: link, Bandwidth: float64(i) * 1e6, Latency: -1}}); err != nil {
			t.Fatal(err)
		}
	}
	if tl.Depth() != 4 || tl.Stats().Capacity != 4 {
		t.Fatalf("depth/capacity = %d/%d, want 4/4", tl.Depth(), tl.Stats().Capacity)
	}
	st := tl.Stats()
	if st.Appends != 10 || st.Evictions != 6 {
		t.Fatalf("stats = %+v, want 10 appends, 6 evictions", st)
	}
	if st.FirstTime != 700 || st.LastTime != 1000 {
		t.Fatalf("retained window [%d, %d], want [700, 1000]", st.FirstTime, st.LastTime)
	}
	if len(st.Entries) != 4 || st.Entries[0].Source != "probe" || st.Entries[0].Changed != 1 {
		t.Fatalf("entries = %+v", st.Entries)
	}
	for i := 1; i < len(st.Entries); i++ {
		if st.Entries[i].Time < st.Entries[i-1].Time || st.Entries[i].Epoch <= st.Entries[i-1].Epoch {
			t.Fatalf("entries not ordered: %+v", st.Entries)
		}
	}
	// Retained times still answer their epochs; evicted times answer base.
	if got := tl.AtTime(800).LinkBandwidth(li); got != 8e6 {
		t.Fatalf("AtTime(800) = %v, want 8e6", got)
	}
	if got := tl.AtTime(650).LinkBandwidth(li); got != base.LinkBandwidth(li) {
		t.Fatalf("evicted range must answer base, got %v", got)
	}
}
