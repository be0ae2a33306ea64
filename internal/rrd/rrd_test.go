package rrd

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"
)

// newSimple creates a 15s-step RRD with fine and coarse AVERAGE archives,
// like a Ganglia power-metric file.
func newSimple(t testing.TB) *RRD {
	t.Helper()
	r, err := Create(15,
		[]DS{{Name: "pdu", Kind: Gauge, Heartbeat: 60}},
		[]RRA{
			{CF: Average, PdpPerRow: 1, Rows: 20},  // 15s x 20 = 5 min fine
			{CF: Average, PdpPerRow: 4, Rows: 100}, // 1 min x 100 coarse
			{CF: Max, PdpPerRow: 4, Rows: 100},
		})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(0, []DS{{Name: "x", Heartbeat: 1}}, []RRA{{CF: Average, PdpPerRow: 1, Rows: 1}}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Create(10, nil, []RRA{{CF: Average, PdpPerRow: 1, Rows: 1}}); err == nil {
		t.Error("no DS accepted")
	}
	if _, err := Create(10, []DS{{Name: "x", Heartbeat: 1}}, nil); err == nil {
		t.Error("no RRA accepted")
	}
	if _, err := Create(10, []DS{{Name: "x", Heartbeat: 1}, {Name: "x", Heartbeat: 1}},
		[]RRA{{CF: Average, PdpPerRow: 1, Rows: 1}}); err == nil {
		t.Error("duplicate DS accepted")
	}
	if _, err := Create(10, []DS{{Name: "x", Heartbeat: 0}},
		[]RRA{{CF: Average, PdpPerRow: 1, Rows: 1}}); err == nil {
		t.Error("zero heartbeat accepted")
	}
	if _, err := Create(10, []DS{{Name: "x", Heartbeat: 5}},
		[]RRA{{CF: Average, PdpPerRow: 0, Rows: 1}}); err == nil {
		t.Error("zero pdpPerRow accepted")
	}
}

func TestUpdateMonotonicTimestamps(t *testing.T) {
	r := newSimple(t)
	if err := r.Update(1000, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(1000, []float64{1}); err == nil {
		t.Error("equal timestamp accepted")
	}
	if err := r.Update(999, []float64{1}); err == nil {
		t.Error("past timestamp accepted")
	}
	if err := r.Update(1015, []float64{1, 2}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestGaugeFetch(t *testing.T) {
	r := newSimple(t)
	// Steady 170 W samples every 15 s, aligned.
	for ts := int64(1500); ts <= 1500+15*30; ts += 15 {
		if err := r.Update(ts, []float64{170}); err != nil {
			t.Fatal(err)
		}
	}
	// The fine archive holds 20 rows = 5 minutes; after 30 PDPs it
	// covers [1650, 1950). Query inside that window.
	s, err := r.FetchBest(Average, 1700, 1900)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step != 15 {
		t.Errorf("step = %d, want 15 (fine archive)", s.Step)
	}
	found := 0
	for _, row := range s.Rows {
		if !math.IsNaN(row[0]) {
			found++
			if math.Abs(row[0]-170) > 1e-9 {
				t.Errorf("value = %v, want 170", row[0])
			}
		}
	}
	if found == 0 {
		t.Fatal("no data points in range")
	}
}

func TestFetchFallsBackToCoarseArchive(t *testing.T) {
	r := newSimple(t)
	// Fill enough data that the fine archive (5 min) wrapped but the
	// coarse one (100 min) still covers the old range.
	for ts := int64(15); ts <= 15*400; ts += 15 {
		if err := r.Update(ts, []float64{float64(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	// changes counts the rows whose value differs from the row before.
	changes := func(s *Series) int {
		n := 0
		for i := 1; i < len(s.Rows); i++ {
			if math.IsNaN(s.Rows[i][0]) || math.IsNaN(s.Rows[i-1][0]) {
				t.Fatalf("unknown row in a covered range: %v", s.Rows)
			}
			if s.Rows[i][0] != s.Rows[i-1][0] {
				n++
			}
		}
		return n
	}
	// Old range: only coarse has it, so the 15 s rows carry 1 min
	// averages and the value moves at most once every four rows.
	s, err := r.FetchBest(Average, 600, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if n := changes(s); n == 0 || n > len(s.Rows)/4+1 {
		t.Errorf("old range: %d value changes over %d rows, want coarse (1 min) data", n, len(s.Rows))
	}
	// Recent range: fine has it, one sample per row.
	s2, err := r.FetchBest(Average, 15*395, 15*399)
	if err != nil {
		t.Fatal(err)
	}
	if n := changes(s2); n != len(s2.Rows)-1 {
		t.Errorf("recent range: %d value changes over %d rows, want fine (15 s) data", n, len(s2.Rows))
	}
}

func TestFetchBestStitchesArchives(t *testing.T) {
	r := newSimple(t)
	for ts := int64(15); ts <= 15*400; ts += 15 {
		if err := r.Update(ts, []float64{42}); err != nil {
			t.Fatal(err)
		}
	}
	// A range spanning old (coarse-only) and recent (fine) data.
	s, err := r.FetchBest(Average, 1000, 15*399)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step != 15 {
		t.Errorf("FetchBest step = %d, want finest", s.Step)
	}
	known := 0
	for _, row := range s.Rows {
		if !math.IsNaN(row[0]) {
			known++
			if math.Abs(row[0]-42) > 1e-9 {
				t.Errorf("value = %v", row[0])
			}
		}
	}
	if frac := float64(known) / float64(len(s.Rows)); frac < 0.9 {
		t.Errorf("only %.0f%% of stitched points known", frac*100)
	}
}

func TestCounterRates(t *testing.T) {
	r, err := Create(10,
		[]DS{{Name: "bytes", Kind: Counter, Heartbeat: 60}},
		[]RRA{{CF: Average, PdpPerRow: 1, Rows: 50}})
	if err != nil {
		t.Fatal(err)
	}
	// Counter grows 1000 per 10s: rate 100/s.
	for i := int64(0); i <= 30; i++ {
		if err := r.Update(10+i*10, []float64{float64(i) * 1000}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := r.FetchBest(Average, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Rows {
		if math.IsNaN(row[0]) {
			continue
		}
		if math.Abs(row[0]-100) > 1e-6 {
			t.Errorf("rate = %v, want 100", row[0])
		}
	}
}

func TestCounterResetYieldsUnknown(t *testing.T) {
	r, err := Create(10,
		[]DS{{Name: "c", Kind: Counter, Heartbeat: 60}},
		[]RRA{{CF: Average, PdpPerRow: 1, Rows: 50}})
	if err != nil {
		t.Fatal(err)
	}
	must := func(ts int64, v float64) {
		t.Helper()
		if err := r.Update(ts, []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	must(10, 1000)
	must(20, 2000)
	must(30, 100) // reset
	must(40, 1100)
	s, err := r.FetchBest(Average, 20, 40)
	if err != nil {
		t.Fatal(err)
	}
	sawNaN := false
	for _, row := range s.Rows {
		if math.IsNaN(row[0]) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Error("counter reset did not produce an unknown interval")
	}
}

func TestHeartbeatGapUnknown(t *testing.T) {
	r := newSimple(t) // heartbeat 60s
	if err := r.Update(100, []float64{5}); err != nil {
		t.Fatal(err)
	}
	// 500s gap >> heartbeat.
	if err := r.Update(600, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(615, []float64{5}); err != nil {
		t.Fatal(err)
	}
	s, err := r.FetchBest(Average, 100, 600)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s.Rows {
		if !math.IsNaN(row[0]) {
			t.Fatalf("gap interval has value %v, want unknown", row[0])
		}
	}
}

func TestMinMaxConsolidation(t *testing.T) {
	r, err := Create(10,
		[]DS{{Name: "v", Kind: Gauge, Heartbeat: 100}},
		[]RRA{
			{CF: Min, PdpPerRow: 4, Rows: 10},
			{CF: Max, PdpPerRow: 4, Rows: 10},
		})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 1}
	for i, v := range vals {
		if err := r.Update(int64(10+i*10), []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	smin, err := r.FetchBest(Min, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	smax, err := r.FetchBest(Max, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	foundMin, foundMax := false, false
	for _, row := range smin.Rows {
		if !math.IsNaN(row[0]) {
			foundMin = true
			if row[0] > 3 {
				t.Errorf("min row = %v, too high", row[0])
			}
		}
	}
	for _, row := range smax.Rows {
		if !math.IsNaN(row[0]) {
			foundMax = true
			if row[0] < 7 {
				t.Errorf("max row = %v, too low", row[0])
			}
		}
	}
	if !foundMin || !foundMax {
		t.Error("no consolidated min/max rows found")
	}
}

func TestFetchUnknownCF(t *testing.T) {
	r := newSimple(t)
	if _, err := r.FetchBest(Last, 0, 100); err == nil {
		t.Error("missing CF accepted")
	}
	if _, err := r.FetchBest(Average, 100, 100); err == nil {
		t.Error("empty range accepted")
	}
}

func TestRingWrapKeepsLatest(t *testing.T) {
	r, err := Create(10,
		[]DS{{Name: "v", Kind: Gauge, Heartbeat: 100}},
		[]RRA{{CF: Average, PdpPerRow: 1, Rows: 5}}) // tiny ring
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := r.Update(int64(i*10), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Only the last ~5 rows are retained.
	s, err := r.FetchBest(Average, 940, 990)
	if err != nil {
		t.Fatal(err)
	}
	known := 0
	for _, row := range s.Rows {
		if !math.IsNaN(row[0]) {
			known++
			if row[0] < 90 {
				t.Errorf("stale value %v survived wrap", row[0])
			}
		}
	}
	if known == 0 {
		t.Fatal("no recent values after wrap")
	}
	// Old data must be gone.
	s2, err := r.FetchBest(Average, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range s2.Rows {
		if !math.IsNaN(row[0]) {
			t.Errorf("value %v from overwritten range", row[0])
		}
	}
}

func TestMultiDS(t *testing.T) {
	r, err := Create(10,
		[]DS{
			{Name: "in", Kind: Gauge, Heartbeat: 100},
			{Name: "out", Kind: Gauge, Heartbeat: 100},
		},
		[]RRA{{CF: Average, PdpPerRow: 1, Rows: 50}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if err := r.Update(int64(i*10), []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := r.FetchBest(Average, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Names) != 2 || s.Names[0] != "in" || s.Names[1] != "out" {
		t.Errorf("names = %v", s.Names)
	}
	for _, row := range s.Rows {
		if math.IsNaN(row[0]) {
			continue
		}
		if row[0] != 1 || row[1] != 2 {
			t.Errorf("row = %v", row)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := newSimple(t)
	for ts := int64(15); ts <= 15*100; ts += 15 {
		if err := r.Update(ts, []float64{float64(ts % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(r2) {
		t.Fatal("round trip changed database")
	}
	// Updates continue seamlessly on the loaded copy.
	if err := r2.Update(15*101, []float64{1}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	r := newSimple(t)
	for ts := int64(15); ts <= 1500; ts += 15 {
		if err := r.Update(ts, []float64{7}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "test.rrd")
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	r2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(r2) {
		t.Fatal("file round trip changed database")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not an rrd"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated valid prefix.
	r := newSimple(t)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated file accepted")
	}
}

// Property: for any sequence of positive gauge updates at arbitrary
// increasing times, fetched AVERAGE values lie within [min, max] of the
// inputs.
func TestFetchBoundedByInputs(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		r, err := Create(10,
			[]DS{{Name: "v", Kind: Gauge, Heartbeat: 1000}},
			[]RRA{{CF: Average, PdpPerRow: 1, Rows: 1000}, {CF: Average, PdpPerRow: 7, Rows: 1000}})
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		ts := int64(10)
		for _, b := range raw {
			v := float64(b) + 1
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			if err := r.Update(ts, []float64{v}); err != nil {
				return false
			}
			ts += int64(1 + b%29)
		}
		s, err := r.FetchBest(Average, 0, ts)
		if err != nil {
			return false
		}
		for _, row := range s.Rows {
			if math.IsNaN(row[0]) {
				continue
			}
			if row[0] < lo-1e-9 || row[0] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Save/Load is the identity for randomized update streams.
func TestSaveLoadIdentityProperty(t *testing.T) {
	f := func(raw []uint8, seed uint8) bool {
		r, err := Create(int64(5+seed%11),
			[]DS{{Name: "a", Kind: Gauge, Heartbeat: 500}, {Name: "b", Kind: Counter, Heartbeat: 500}},
			[]RRA{{CF: Average, PdpPerRow: 2, Rows: 13}, {CF: Max, PdpPerRow: 5, Rows: 7}})
		if err != nil {
			return false
		}
		ts := int64(1)
		acc := 0.0
		for _, b := range raw {
			acc += float64(b)
			if err := r.Update(ts, []float64{float64(b), acc}); err != nil {
				return false
			}
			ts += int64(1 + b%17)
		}
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			return false
		}
		r2, err := Load(&buf)
		if err != nil {
			return false
		}
		return r.Equal(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpdate(b *testing.B) {
	r, err := Create(15,
		[]DS{{Name: "v", Kind: Gauge, Heartbeat: 60}},
		[]RRA{{CF: Average, PdpPerRow: 1, Rows: 1000}, {CF: Average, PdpPerRow: 20, Rows: 1000}})
	if err != nil {
		b.Fatal(err)
	}
	vals := []float64{42}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Update(int64(15*(i+1)), vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchBest(b *testing.B) {
	r := newSimple(b)
	for ts := int64(15); ts <= 15*5000; ts += 15 {
		if err := r.Update(ts, []float64{float64(ts)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.FetchBest(Average, 15*4000, 15*5000); err != nil {
			b.Fatal(err)
		}
	}
}
