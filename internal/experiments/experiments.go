// Package experiments implements the paper's evaluation campaign (§V):
// for each figure, draw random sources and destinations according to the
// topology (CLUSTER or GRID_MULTI), execute the concurrent transfers on
// the emulated testbed (the "actual" measurements), query the forecast
// service for the same batch (the predictions), and aggregate the
// per-transfer error log2(prediction) - log2(measure) per transfer size.
package experiments

import (
	"fmt"
	"math"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/stats"
	"pilgrim/internal/testbed"
)

// Topology selects the node-draw policy of §V-A.
type Topology int

// Topologies.
const (
	// Cluster draws all sources and destinations from a single cluster.
	Cluster Topology = iota
	// GridMulti draws from all clusters of all sites, with every
	// transfer crossing a site boundary.
	GridMulti
)

// String returns the paper's name for the topology.
func (t Topology) String() string {
	switch t {
	case Cluster:
		return "CLUSTER"
	case GridMulti:
		return "GRID_MULTI"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Spec defines one experiment (one figure of the paper).
type Spec struct {
	ID    string // e.g. "fig8"
	Title string
	Topology
	// Site and Cluster select the cluster for Cluster topology.
	Site    string
	Cluster string
	// NSources and NDests are the concurrency parameters. When they
	// differ, some nodes carry more than one transfer (§V-A).
	NSources int
	NDests   int
	// Sizes is the transfer-size sweep; nil means the paper's 10-point
	// geometric progression from 0.1 MB to 10 GB.
	Sizes []float64
	// Reps is the number of repetitions per size; 0 means the paper's 10.
	Reps int
	// Seed makes the experiment reproducible.
	Seed int64
}

// PaperSizes returns the paper's transfer-size sweep.
func PaperSizes() []float64 { return stats.GeomSpace(1e5, 1e10, 10) }

// reps returns the effective repetition count.
func (s Spec) reps() int {
	if s.Reps <= 0 {
		return 10
	}
	return s.Reps
}

// sizes returns the effective size sweep.
func (s Spec) sizes() []float64 {
	if len(s.Sizes) == 0 {
		return PaperSizes()
	}
	return s.Sizes
}

// Figures returns the nine experiments of the paper's result section,
// Figures 3 through 11.
func Figures() []Spec {
	return []Spec{
		{ID: "fig3", Title: "sagittaire / topology CLUSTER / 1 source / 10 destinations",
			Topology: Cluster, Site: "lyon", Cluster: "sagittaire", NSources: 1, NDests: 10, Seed: 3},
		{ID: "fig4", Title: "sagittaire / topology CLUSTER / 10 sources / 10 destinations",
			Topology: Cluster, Site: "lyon", Cluster: "sagittaire", NSources: 10, NDests: 10, Seed: 4},
		{ID: "fig5", Title: "sagittaire / topology CLUSTER / 30 sources / 30 destinations",
			Topology: Cluster, Site: "lyon", Cluster: "sagittaire", NSources: 30, NDests: 30, Seed: 5},
		{ID: "fig6", Title: "graphene / topology CLUSTER / 1 source / 10 destinations",
			Topology: Cluster, Site: "nancy", Cluster: "graphene", NSources: 1, NDests: 10, Seed: 6},
		{ID: "fig7", Title: "graphene / topology CLUSTER / 10 sources / 10 destinations",
			Topology: Cluster, Site: "nancy", Cluster: "graphene", NSources: 10, NDests: 10, Seed: 7},
		{ID: "fig8", Title: "graphene / topology CLUSTER / 30 sources / 30 destinations",
			Topology: Cluster, Site: "nancy", Cluster: "graphene", NSources: 30, NDests: 30, Seed: 8},
		{ID: "fig9", Title: "graphene / topology CLUSTER / 50 sources / 50 destinations",
			Topology: Cluster, Site: "nancy", Cluster: "graphene", NSources: 50, NDests: 50, Seed: 9},
		{ID: "fig10", Title: "topology GRID_MULTI / 10 sources / 30 destinations",
			Topology: GridMulti, NSources: 10, NDests: 30, Seed: 10},
		{ID: "fig11", Title: "topology GRID_MULTI / 60 sources / 60 destinations",
			Topology: GridMulti, NSources: 60, NDests: 60, Seed: 11},
	}
}

// FigureByID returns the paper figure spec with the given id.
func FigureByID(id string) (Spec, bool) {
	for _, s := range Figures() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// Sample is one transfer's outcome: prediction vs measure.
type Sample struct {
	Src        string
	Dst        string
	Size       float64
	Measured   float64
	Predicted  float64
	Log2Error  float64
	Repetition int
}

// Cell aggregates one transfer size of one experiment.
type Cell struct {
	Size    float64
	Samples []Sample
}

// Errors returns the log2 errors of all samples.
func (c *Cell) Errors() []float64 {
	out := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		out[i] = s.Log2Error
	}
	return out
}

// MedianMeasured returns the median measured duration of the cell.
func (c *Cell) MedianMeasured() float64 {
	ds := make([]float64, len(c.Samples))
	for i, s := range c.Samples {
		ds[i] = s.Measured
	}
	return stats.Median(ds)
}

// Result is one completed experiment.
type Result struct {
	Spec  Spec
	Cells []Cell
}

// Runner executes experiments: the testbed provides measures, the
// forecast entry provides predictions. A Runner is not safe for
// concurrent use: draw pools and per-repetition buffers are cached on the
// Runner so a campaign's inner loop allocates little.
type Runner struct {
	Testbed *testbed.Testbed
	Entry   pilgrim.PlatformEntry

	// GridMulti draw pools, built once from the reference.
	gmSites  []string
	gmBySite map[string][]string

	// per-repetition scratch
	transferBuf []testbed.Transfer
	reqBuf      []pilgrim.TransferRequest
	srcBuf      []string
	srcSiteBuf  []string
	dstBuf      []string
}

// NewRunner wires a runner from a reference description, a testbed
// configuration and a forecast platform entry. The entry's compiled
// snapshot is pinned up front: a campaign is one coherent experiment, so
// every cell predicts against the same platform epoch even if the
// platform is refreshed concurrently.
func NewRunner(ref *g5k.Reference, tbCfg testbed.Config, entry pilgrim.PlatformEntry) (*Runner, error) {
	tb, err := testbed.New(ref, tbCfg)
	if err != nil {
		return nil, err
	}
	return &Runner{Testbed: tb, Entry: entry.WithSnapshot()}, nil
}

// drawTransfers picks the experiment's transfers for one repetition.
func (r *Runner) drawTransfers(spec Spec, size float64, rng *stats.RNG) ([]testbed.Transfer, error) {
	n := spec.NSources
	if spec.NDests > n {
		n = spec.NDests
	}
	if n == 0 {
		return nil, fmt.Errorf("experiments: %s has zero transfers", spec.ID)
	}
	switch spec.Topology {
	case Cluster:
		nodes := r.Testbed.NodesOfCluster(spec.Site, spec.Cluster)
		if len(nodes) == 0 {
			return nil, fmt.Errorf("experiments: no nodes in %s/%s", spec.Site, spec.Cluster)
		}
		sources, dests := r.srcBuf[:0], r.dstBuf[:0]
		if spec.NSources+spec.NDests <= len(nodes) {
			// Disjoint draws.
			idx := rng.Sample(len(nodes), spec.NSources+spec.NDests)
			for _, i := range idx[:spec.NSources] {
				sources = append(sources, nodes[i])
			}
			for _, i := range idx[spec.NSources:] {
				dests = append(dests, nodes[i])
			}
		} else {
			for _, i := range rng.Sample(len(nodes), spec.NSources) {
				sources = append(sources, nodes[i])
			}
			for _, i := range rng.Sample(len(nodes), spec.NDests) {
				dests = append(dests, nodes[i])
			}
		}
		r.srcBuf, r.dstBuf = sources, dests
		transfers := r.transferBuf[:0]
		for k := 0; k < n; k++ {
			src := sources[k%len(sources)]
			dst := dests[k%len(dests)]
			if src == dst {
				dst = dests[(k+1)%len(dests)]
			}
			if src == dst {
				return nil, fmt.Errorf("experiments: cannot avoid self transfer in %s", spec.ID)
			}
			transfers = append(transfers, testbed.Transfer{Src: src, Dst: dst, Size: size})
		}
		r.transferBuf = transfers
		return transfers, nil

	case GridMulti:
		if r.gmBySite == nil {
			ref := r.Testbed.Reference()
			r.gmBySite = make(map[string][]string)
			for _, siteID := range ref.SiteIDs() {
				site := ref.Sites[siteID]
				for _, cid := range site.ClusterIDs() {
					for _, nid := range site.Clusters[cid].NodeIDs() {
						r.gmBySite[siteID] = append(r.gmBySite[siteID], g5k.FQDN(nid, siteID))
					}
				}
				r.gmSites = append(r.gmSites, siteID)
			}
		}
		bySite, sites := r.gmBySite, r.gmSites
		if len(sites) < 2 {
			return nil, fmt.Errorf("experiments: GRID_MULTI needs at least 2 sites")
		}
		// Draw source and destination pools from all nodes.
		pick := func() (string, string) {
			si := rng.Intn(len(sites))
			return sites[si], bySite[sites[si]][rng.Intn(len(bySite[sites[si]]))]
		}
		sources := resizeStrings(&r.srcBuf, spec.NSources)
		srcSites := resizeStrings(&r.srcSiteBuf, spec.NSources)
		for i := range sources {
			srcSites[i], sources[i] = pick()
		}
		dests := resizeStrings(&r.dstBuf, spec.NDests)
		for i := range dests {
			// Constraint: all transfers cross site boundaries; destination
			// site differs from the source it will pair with (and any
			// wrap-around pairing below keeps sites distinct because the
			// pools are re-checked per transfer).
			for {
				site, node := pick()
				if site != srcSites[i%len(srcSites)] {
					dests[i] = node
					break
				}
			}
		}
		transfers := r.transferBuf[:0]
		for k := 0; k < n; k++ {
			src := sources[k%len(sources)]
			dst := dests[k%len(dests)]
			if siteOf(src) == siteOf(dst) {
				// Wrap-around pairing broke the constraint; redraw a
				// destination on another site.
				for {
					site, node := pick()
					if site != siteOf(src) {
						dst = node
						break
					}
				}
			}
			transfers = append(transfers, testbed.Transfer{Src: src, Dst: dst, Size: size})
		}
		r.transferBuf = transfers
		return transfers, nil
	default:
		return nil, fmt.Errorf("experiments: unknown topology %v", spec.Topology)
	}
}

// resizeStrings returns *buf resized to n elements, reallocating only on
// capacity growth; the backing array is cached through buf.
func resizeStrings(buf *[]string, n int) []string {
	if cap(*buf) < n {
		*buf = make([]string, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// siteOf extracts the site from an FQDN ("node.site.grid5000.fr").
func siteOf(fqdn string) string {
	dot := -1
	for i := 0; i < len(fqdn); i++ {
		if fqdn[i] == '.' {
			dot = i
			break
		}
	}
	if dot == -1 {
		return ""
	}
	rest := fqdn[dot+1:]
	for i := 0; i < len(rest); i++ {
		if rest[i] == '.' {
			return rest[:i]
		}
	}
	return rest
}

// RunCell executes all repetitions of one (spec, size) cell.
func (r *Runner) RunCell(spec Spec, size float64) (Cell, error) {
	cell := Cell{Size: size}
	for rep := 0; rep < spec.reps(); rep++ {
		seed := spec.Seed*1_000_003 + int64(math.Float64bits(size)%1_000_000) + int64(rep)
		rng := stats.NewRNG(seed)
		transfers, err := r.drawTransfers(spec, size, rng)
		if err != nil {
			return cell, err
		}
		r.Testbed.Reseed(seed ^ 0x5DEECE66D)
		measures, err := r.Testbed.RunTransfers(transfers)
		if err != nil {
			return cell, fmt.Errorf("experiments: %s size %.3g rep %d (measure): %w", spec.ID, size, rep, err)
		}
		reqs := r.reqBuf[:0]
		for _, tr := range transfers {
			reqs = append(reqs, pilgrim.TransferRequest{Src: tr.Src, Dst: tr.Dst, Size: tr.Size})
		}
		r.reqBuf = reqs
		preds, err := pilgrim.PredictTransfers(r.Entry, reqs, nil)
		if err != nil {
			return cell, fmt.Errorf("experiments: %s size %.3g rep %d (predict): %w", spec.ID, size, rep, err)
		}
		for i := range transfers {
			cell.Samples = append(cell.Samples, Sample{
				Src:        transfers[i].Src,
				Dst:        transfers[i].Dst,
				Size:       size,
				Measured:   measures[i].Duration,
				Predicted:  preds[i].Duration,
				Log2Error:  stats.Log2Error(preds[i].Duration, measures[i].Duration),
				Repetition: rep,
			})
		}
	}
	return cell, nil
}

// RunFigure executes one experiment across its full size sweep.
func (r *Runner) RunFigure(spec Spec) (*Result, error) {
	res := &Result{Spec: spec}
	for _, size := range spec.sizes() {
		cell, err := r.RunCell(spec, size)
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}
