package metrology

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pilgrim/internal/rrd"
)

// constant is a source that always reads v.
func constant(v float64) Source {
	return func(int64) float64 { return v }
}

func TestMetricPathRoundTrip(t *testing.T) {
	p := MetricPath{Tool: "ganglia", Site: "lyon", Host: "sagittaire-1.lyon.grid5000.fr", Metric: "pdu"}
	s := p.String()
	if s != "ganglia/lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd" {
		t.Errorf("String = %q", s)
	}
	p2, err := ParseMetricPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Errorf("round trip: %+v", p2)
	}
}

func TestParseMetricPathErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"a/b/c",
		"a/b/c/d", // no .rrd
		"a/b/c/.rrd",
		"a//c/d.rrd",
		"../b/c/d.rrd",
		"a/b/c/d.rrd/e",
	} {
		if _, err := ParseMetricPath(bad); err == nil {
			t.Errorf("ParseMetricPath(%q) accepted", bad)
		}
	}
}

func TestRegisterAndCollect(t *testing.T) {
	reg := NewRegistry()
	p := MetricPath{Tool: "ganglia", Site: "lyon", Host: "sagittaire-1.lyon.grid5000.fr", Metric: "pdu"}
	if err := reg.Register(p, rrd.Gauge, 15, constant(168.9)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(p, rrd.Gauge, 15, constant(1)); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := reg.Collect(0, 3600); err != nil {
		t.Fatal(err)
	}
	db, ok := reg.Database(p)
	if !ok {
		t.Fatal("database missing")
	}
	s, err := db.FetchBest(rrd.Average, 1800, 3600)
	if err != nil {
		t.Fatal(err)
	}
	known := 0
	for _, row := range s.Rows {
		if !math.IsNaN(row[0]) {
			known++
			if math.Abs(row[0]-168.9) > 1e-9 {
				t.Errorf("value = %v", row[0])
			}
		}
	}
	if known == 0 {
		t.Fatal("no samples collected")
	}
}

func TestCollectIncremental(t *testing.T) {
	reg := NewRegistry()
	p := MetricPath{Tool: "munin", Site: "nancy", Host: "graphene-1.nancy.grid5000.fr", Metric: "load"}
	if err := reg.Register(p, rrd.Gauge, 15, constant(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Collect(0, 600); err != nil {
		t.Fatal(err)
	}
	// Second collection overlapping the first must not error (resumes
	// after last update).
	if err := reg.Collect(300, 1200); err != nil {
		t.Fatal(err)
	}
	db, _ := reg.Database(p)
	if db.LastUpdate() != 1200 {
		t.Errorf("last update = %d, want 1200", db.LastUpdate())
	}
}

func TestPaperPowerExample(t *testing.T) {
	// §IV-C1: querying one minute of sagittaire-1's pdu metric yields
	// four 15-second samples around 168-169 W.
	reg := NewRegistry()
	p := MetricPath{Tool: "ganglia", Site: "lyon", Host: "sagittaire-1.lyon.grid5000.fr", Metric: "pdu"}
	if err := reg.Register(p, rrd.Gauge, 15, PowerSource(168.8, 12, 42)); err != nil {
		t.Fatal(err)
	}
	// Collect a simulated morning (the paper queried 08:00).
	const begin = 8 * 3600
	if err := reg.Collect(0, begin+120); err != nil {
		t.Fatal(err)
	}
	db, _ := reg.Database(p)
	s, err := db.FetchBest(rrd.Average, begin, begin+60)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (one minute at 15s)", len(s.Rows))
	}
	for _, row := range s.Rows {
		if math.IsNaN(row[0]) {
			t.Fatal("unknown sample in freshly collected range")
		}
		if row[0] < 160 || row[0] < 0 || row[0] > 190 {
			t.Errorf("implausible power %v W", row[0])
		}
	}
}

func TestSyncAndLoadTree(t *testing.T) {
	reg := NewRegistry()
	paths := []MetricPath{
		{Tool: "ganglia", Site: "lyon", Host: "sagittaire-1.lyon.grid5000.fr", Metric: "pdu"},
		{Tool: "ganglia", Site: "nancy", Host: "graphene-1.nancy.grid5000.fr", Metric: "bytes_in"},
	}
	if err := reg.Register(paths[0], rrd.Gauge, 15, constant(168.9)); err != nil {
		t.Fatal(err)
	}
	// A byte counter growing by 1 MB per 15-second step.
	if err := reg.Register(paths[1], rrd.Counter, 15, func(ts int64) float64 { return float64(ts) * 1e6 / 15 }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Collect(0, 3600); err != nil {
		t.Fatal(err)
	}
	// Write the tree one RRD file per metric, as cmd/rrdtool saves them.
	dir := t.TempDir()
	for _, p := range paths {
		db, _ := reg.Database(p)
		file := filepath.Join(dir, p.Tool, p.Site, p.Host, p.Metric+".rrd")
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := db.SaveFile(file); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(loaded.Paths()); got != 2 {
		t.Fatalf("loaded %d metrics, want 2", got)
	}
	for _, p := range paths {
		orig, _ := reg.Database(p)
		got, ok := loaded.Database(p)
		if !ok {
			t.Fatalf("metric %s missing after load", p)
		}
		if !orig.Equal(got) {
			t.Errorf("metric %s changed across sync/load", p)
		}
	}
}

func TestSourcesAreDeterministicPerSeed(t *testing.T) {
	a := PowerSource(100, 10, 1)
	b := PowerSource(100, 10, 1)
	for ts := int64(0); ts < 10*900; ts += 900 {
		if a(ts) != b(ts) {
			t.Fatal("PowerSource nondeterministic for same seed")
		}
	}
}
