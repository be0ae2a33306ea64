// Package metrology emulates the sysadmin-side metric collection stack
// (Ganglia/Munin-style, paper §III-A): per-host metric sources sampled on
// a fixed period into a tree of RRD files —
//
//	<root>/<tool>/<site>/<host>/<metric>.rrd
//
// which is exactly the layout the Pilgrim RRD web service fronts
// (§IV-C1: ".../pilgrim/rrd/ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/
// pdu.rrd/?begin=...&end=..."). The collector runs in simulated time so
// campaigns can generate months of history instantly.
package metrology

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pilgrim/internal/rrd"
)

// MetricPath identifies one RRD in the tree.
type MetricPath struct {
	Tool   string // e.g. "ganglia"
	Site   string // e.g. "lyon"
	Host   string // fully qualified node name
	Metric string // e.g. "pdu" (file stored as pdu.rrd)
}

// String returns the slash form used in service URLs.
func (p MetricPath) String() string {
	return p.Tool + "/" + p.Site + "/" + p.Host + "/" + p.Metric + ".rrd"
}

// ParseMetricPath parses "tool/site/host/metric.rrd".
func ParseMetricPath(s string) (MetricPath, error) {
	parts := strings.Split(strings.Trim(s, "/"), "/")
	if len(parts) != 4 {
		return MetricPath{}, fmt.Errorf("metrology: path %q is not tool/site/host/metric.rrd", s)
	}
	metric := strings.TrimSuffix(parts[3], ".rrd")
	if metric == "" || metric == parts[3] {
		return MetricPath{}, fmt.Errorf("metrology: metric %q must end in .rrd", parts[3])
	}
	for _, p := range parts[:3] {
		if p == "" || p == "." || p == ".." {
			return MetricPath{}, fmt.Errorf("metrology: invalid path component %q", p)
		}
	}
	return MetricPath{Tool: parts[0], Site: parts[1], Host: parts[2], Metric: metric}, nil
}

// Source produces one sample of a metric at a simulated Unix timestamp.
type Source func(ts int64) float64

// series couples a source with its database.
type series struct {
	path MetricPath
	src  Source
	db   *rrd.RRD
}

// Registry holds the metric tree in memory, with optional persistence to
// an on-disk RRD file tree.
type Registry struct {
	mu     sync.RWMutex
	byPath map[MetricPath]*series
	order  []MetricPath
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byPath: make(map[MetricPath]*series)}
}

// DefaultArchives returns the RRA ladder used for host metrics: 15-second
// points for an hour, minute points for a day, and 10-minute points for
// two weeks, each with AVERAGE and MAX.
func DefaultArchives() []rrd.RRA {
	return []rrd.RRA{
		{CF: rrd.Average, PdpPerRow: 1, Rows: 240},
		{CF: rrd.Average, PdpPerRow: 4, Rows: 1440},
		{CF: rrd.Average, PdpPerRow: 40, Rows: 2016},
		{CF: rrd.Max, PdpPerRow: 4, Rows: 1440},
	}
}

// Register adds a metric with its source. kind selects Gauge or Counter
// semantics; step is the sampling period in seconds.
func (r *Registry) Register(path MetricPath, kind rrd.DSKind, step int64, src Source) error {
	db, err := rrd.Create(step,
		[]rrd.DS{{Name: path.Metric, Kind: kind, Heartbeat: 4 * step}},
		DefaultArchives())
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byPath[path]; dup {
		return fmt.Errorf("metrology: metric %s already registered", path)
	}
	r.byPath[path] = &series{path: path, src: src, db: db}
	r.order = append(r.order, path)
	return nil
}

// Collect samples every registered source over simulated time
// (from, to], on each metric's own step, feeding its RRD.
func (r *Registry) Collect(from, to int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.order {
		s := r.byPath[p]
		step := s.db.Step()
		start := from - from%step + step
		if last := s.db.LastUpdate(); last >= start {
			start = last + step
		}
		for ts := start; ts <= to; ts += step {
			if err := s.db.Update(ts, []float64{s.src(ts)}); err != nil {
				return fmt.Errorf("metrology: %s: %w", p, err)
			}
		}
	}
	return nil
}

// Database returns the RRD behind a metric path.
func (r *Registry) Database(path MetricPath) (*rrd.RRD, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byPath[path]
	if !ok {
		return nil, false
	}
	return s.db, true
}

// Paths returns all registered metric paths in registration order.
func (r *Registry) Paths() []MetricPath {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]MetricPath(nil), r.order...)
}

// LoadTree reads an on-disk tree into a registry with nil sources
// (read-only serving, as the Pilgrim service does).
func LoadTree(dir string) (*Registry, error) {
	reg := NewRegistry()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".rrd") {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		mp, err := ParseMetricPath(filepath.ToSlash(rel))
		if err != nil {
			return nil // ignore stray files
		}
		db, err := rrd.LoadFile(path)
		if err != nil {
			return fmt.Errorf("metrology: loading %s: %w", path, err)
		}
		reg.mu.Lock()
		reg.byPath[mp] = &series{path: mp, db: db}
		reg.order = append(reg.order, mp)
		reg.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(reg.order, func(i, j int) bool {
		return reg.order[i].String() < reg.order[j].String()
	})
	return reg, nil
}
