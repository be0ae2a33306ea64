package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"pilgrim/internal/g5k"
	"pilgrim/internal/pilgrim"
	"pilgrim/internal/platform"
	"pilgrim/internal/platgen"
	"pilgrim/internal/scenario"
)

// This file generates the workloads. The harness takes the seed; the
// server sees only the generated requests. Op n of a workload is a pure
// function of (seed, n), so the two clients can pull from one shared
// counter and the sequence does not depend on which client ran faster.

const (
	platformName = "g5k_test"

	// writeEpoch0 is the timestamp of the first prepared observation
	// (2012-05-04 06:00:00 UTC, the paper's metrology example day); write k
	// of a run is stamped writeEpoch0 + k.
	writeEpoch0 = 1336111200
	writeSource = "pilgrimbench"

	distinctPollQueries   = 16
	distinctChurnQueries  = 4
	churnWriteEvery       = 17
	churnLinksPerWrite    = 8
	transfersPerPoll      = 30
	transfersPerColdMiss  = 60
	gridShapes            = 16
	gridReuse, gridFork   = 3, 3
	gridCold              = 1
	gridDerived           = gridReuse + gridFork + gridCold // plus the baseline: 8 scenarios
	gridTransfersPerQuery = 30
)

// rng is splitmix64: allocation-free, seedable per op.
type rng uint64

func newRNG(seed int64, stream, n uint64) *rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ n*0x94d049bb133111eb)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// size draws a transfer size log-uniformly in [1e8, 1e10) bytes — the
// range where the paper considers the fluid model reliable (§V-B) — as a
// whole number, so it survives the URL's decimal rendering exactly.
func (r *rng) size() float64 { return math.Floor(1e8 * math.Pow(100, r.float())) }

// world is the harness's own copy of the platform: host names by site and
// resolved routes, used to generate requests with known properties. The
// servers under test generate their own.
type world struct {
	snap   *platform.Snapshot
	sites  []string
	bySite map[string][]string
	hosts  []string
}

func newWorld() (*world, error) {
	plat, err := platgen.Generate(g5k.Default(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		return nil, err
	}
	w := &world{snap: plat.Snapshot(), bySite: make(map[string][]string)}
	for i := 0; i < w.snap.NumHosts(); i++ {
		h := w.snap.HostName(int32(i))
		w.hosts = append(w.hosts, h)
		site := siteOf(h)
		if _, ok := w.bySite[site]; !ok {
			w.sites = append(w.sites, site)
		}
		w.bySite[site] = append(w.bySite[site], h)
	}
	sort.Strings(w.sites)
	if len(w.sites) < 2 {
		return nil, fmt.Errorf("platform has %d sites, cross-site workloads need 2", len(w.sites))
	}
	return w, nil
}

// siteOf extracts the site label of "node.site.grid5000.fr".
func siteOf(fqdn string) string {
	_, rest, _ := strings.Cut(fqdn, ".")
	site, _, _ := strings.Cut(rest, ".")
	return site
}

// crossSitePair draws a source anywhere and a destination on another site
// (Fig. 10/11's GRID_MULTI constraint).
func (w *world) crossSitePair(r *rng) (src, dst string) {
	si := r.intn(len(w.sites))
	di := (si + 1 + r.intn(len(w.sites)-1)) % len(w.sites)
	s, d := w.bySite[w.sites[si]], w.bySite[w.sites[di]]
	return s[r.intn(len(s))], d[r.intn(len(d))]
}

// warmRoutes resolves the route of every ordered cross-site host pair on
// snap (the pair space crossSitePair draws from).
func (w *world) warmRoutes(snap *platform.Snapshot) error {
	for _, ss := range w.sites {
		for _, ds := range w.sites {
			if ss == ds {
				continue
			}
			for _, src := range w.bySite[ss] {
				for _, dst := range w.bySite[ds] {
					if _, err := snap.Route(src, dst); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// anyPair draws two distinct hosts from the whole platform.
func (w *world) anyPair(r *rng) (src, dst string) {
	si := r.intn(len(w.hosts))
	di := (si + 1 + r.intn(len(w.hosts)-1)) % len(w.hosts)
	return w.hosts[si], w.hosts[di]
}

type opKind uint8

const (
	opPredict opKind = iota
	opEvaluate
	opUpdate
)

// op is one generated request plus what the harness needs to check and
// replay it.
type op struct {
	kind   opKind
	method string
	path   string // path and query
	body   []byte

	transfers []pilgrim.TransferRequest // opPredict
	eval      *pilgrim.EvaluateRequest  // opEvaluate
	updates   []platform.LinkUpdate     // opUpdate (time and body are minted at send time)

	// minLen and maxLen bound the answer's length by what the request
	// implies (a repeating fixed-epoch workload is held to exact lengths
	// instead, see session.pinRepeats).
	minLen, maxLen int
}

func appendSize(b []byte, size float64) []byte {
	// 'f' format: %g would print 5e+08, whose '+' decodes as a space in a
	// query string.
	return strconv.AppendFloat(b, size, 'f', -1, 64)
}

// predictOp renders a predict_transfers GET and the length bounds of its
// answer: the echoed fields are known, each duration is a JSON number.
func predictOp(transfers []pilgrim.TransferRequest) op {
	b := make([]byte, 0, 64+72*len(transfers))
	b = append(b, "/pilgrim/predict_transfers/"+platformName+"?"...)
	fixed := len("[\n]\n")
	for i, t := range transfers {
		if i > 0 {
			b = append(b, '&')
			fixed++ // the comma between array elements
		}
		b = append(b, "transfer="...)
		b = append(b, t.Src...)
		b = append(b, ',')
		b = append(b, t.Dst...)
		b = append(b, ',')
		mark := len(b)
		b = appendSize(b, t.Size)
		// " {\n  "src": "S",\n  "dst": "D",\n  "size": N,\n  "duration": X\n }" plus
		// the newline before the element.
		fixed += len("\n {\n  \"src\": \"\",\n  \"dst\": \"\",\n  \"size\": ,\n  \"duration\": \n }") +
			len(t.Src) + len(t.Dst) + (len(b) - mark)
	}
	// The size is echoed through encoding/json's float formatting, which
	// may differ from the URL's ('e' notation above 1e21 — never here) and
	// a duration is 1 to 24 characters.
	return op{
		kind: opPredict, method: "GET", path: string(b), transfers: transfers,
		minLen: fixed + len(transfers), maxLen: fixed + 24*len(transfers),
	}
}

// queryShape is a fixed set of endpoint pairs; sizes are drawn per use.
type queryShape [][2]string

func (w *world) shapes(seed int64, stream uint64, n, transfers int, pair func(*rng) (string, string)) []queryShape {
	out := make([]queryShape, n)
	for i := range out {
		r := newRNG(seed, stream, uint64(i))
		out[i] = make(queryShape, transfers)
		for k := range out[i] {
			src, dst := pair(r)
			out[i][k] = [2]string{src, dst}
		}
	}
	return out
}

func (q queryShape) transfers(r *rng) []pilgrim.TransferRequest {
	out := make([]pilgrim.TransferRequest, len(q))
	for k, p := range q {
		out[k] = pilgrim.TransferRequest{Src: p[0], Dst: p[1], Size: r.size()}
	}
	return out
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// durable workloads run against a WAL-backed registry restarted from a
	// prepared directory.
	durable bool
	gen     func(n uint64) op
	// churn is set for ingest-churn: link picks for its writes.
	churn *churnState
	// sizeNote states the input size behind req_per_s.
	sizeNote string
	// repeats is set for a workload that cycles through this many distinct
	// requests on a fixed epoch: their exact answers are pinned up front.
	repeats int
	// warmRoutes marks a workload whose requests never repeat but draw
	// their endpoints from a finite pair space: a platform memoizes each
	// route the first time a pair is asked for (a cold resolution costs
	// ~25x a warm one), and the timed run's warm-up covers ~90 % of the
	// pairs before the window opens. The traced run is far shorter, so it
	// resolves every such route up front to measure the same state.
	warmRoutes bool
}

// The one-line whys are also the "why" fields of BENCHMARK.json.
const (
	whyPollHit    = "16 repeated 30-transfer GETs: every request is a forecast-cache hit, so wire + server + cache lookup do all the work"
	whyColdMiss   = "every GET distinct (60 cross-site transfers): every request simulates, so sim + flow + platform dominate and the cache only stores and evicts"
	whyWhatifGrid = "POST evaluate, 8 scenarios x 30 transfers, fresh sizes and factors: fixed 3 reuse / 3 fork / 1 cold tier mix exercises checkpoint/fork, body decode and streamed encode"
	whyIngestRun  = "1 update_links write per 17 ops beside 4 polled queries on a WAL-backed registry: each write mints an epoch, so 4 reads miss and 12 hit per cycle"
)

func (w *world) workloads(seed int64) []*workload {
	return []*workload{
		w.pollHit(seed),
		w.coldMiss(seed),
		w.whatifGrid(seed),
		w.ingestChurn(seed),
	}
}

func (w *world) pollHit(seed int64) *workload {
	shapes := w.shapes(seed, 1, distinctPollQueries, transfersPerPoll, w.anyPair)
	ops := make([]op, len(shapes))
	for i, s := range shapes {
		ops[i] = predictOp(s.transfers(newRNG(seed, 2, uint64(i))))
	}
	return &workload{
		name: "poll-hit", why: whyPollHit, repeats: distinctPollQueries,
		sizeNote: "30 transfers per request, 16 distinct requests",
		gen:      func(n uint64) op { return ops[n%uint64(len(ops))] },
	}
}

func (w *world) coldMiss(seed int64) *workload {
	return &workload{
		name: "cold-miss", why: whyColdMiss, warmRoutes: true,
		sizeNote: "60 cross-site transfers per request, every request distinct",
		gen: func(n uint64) op {
			r := newRNG(seed, 3, n)
			transfers := make([]pilgrim.TransferRequest, transfersPerColdMiss)
			for k := range transfers {
				src, dst := w.crossSitePair(r)
				transfers[k] = pilgrim.TransferRequest{Src: src, Dst: dst, Size: r.size()}
			}
			return predictOp(transfers)
		},
	}
}

// gridShape is a query shape with the links that are on and off its
// resolved routes, so every request can be given a fixed tier mix.
type gridShape struct {
	shape   queryShape
	onPath  []string
	offPath []string
}

func (w *world) gridShape(shape queryShape) (gridShape, error) {
	on := make([]bool, w.snap.NumLinks())
	for _, p := range shape {
		route, err := w.snap.Route(p[0], p[1])
		if err != nil {
			return gridShape{}, err
		}
		for _, ref := range route.Refs {
			on[ref.LinkIndex()] = true
		}
	}
	g := gridShape{shape: shape}
	for li, hit := range on {
		name := w.snap.LinkName(int32(li))
		if hit {
			g.onPath = append(g.onPath, name)
		} else {
			g.offPath = append(g.offPath, name)
		}
	}
	if len(g.onPath) < gridFork+gridCold || len(g.offPath) < gridReuse {
		return gridShape{}, fmt.Errorf("grid shape has %d on-path and %d off-path links", len(g.onPath), len(g.offPath))
	}
	return g, nil
}

// pickDistinct draws k distinct elements of from.
func pickDistinct(r *rng, from []string, k int) []string {
	out := make([]string, 0, k)
	for len(out) < k {
		c := from[r.intn(len(from))]
		dup := false
		for _, o := range out {
			dup = dup || o == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

func (w *world) whatifGrid(seed int64) *workload {
	var shapes []gridShape
	for _, s := range w.shapes(seed, 4, gridShapes, gridTransfersPerQuery, w.anyPair) {
		g, err := w.gridShape(s)
		if err != nil {
			// Every 30-transfer shape on g5k_test leaves hundreds of links
			// off its routes; a platform where that fails cannot run this
			// workload at all.
			panic(err)
		}
		shapes = append(shapes, g)
	}
	return &workload{
		name: "whatif-grid", why: whyWhatifGrid,
		sizeNote: "8 scenarios x 1 query of 30 transfers per request",
		gen: func(n uint64) op {
			g := &shapes[n%uint64(len(shapes))]
			r := newRNG(seed, 5, n)
			// A factor in [0.30, 0.90) with 1e-6 resolution: fresh per
			// request, so no overlay or forecast is answered from a cache.
			factor := func() float64 { return 0.30 + float64(r.intn(600000))/1e6 }
			req := &pilgrim.EvaluateRequest{
				Scenarios: []scenario.Scenario{{Name: "baseline"}},
				Queries: []pilgrim.EvalQuery{{
					Kind: pilgrim.QueryPredictTransfers, Transfers: g.shape.transfers(r),
				}},
			}
			for i, link := range pickDistinct(r, g.offPath, gridReuse) {
				req.Scenarios = append(req.Scenarios, scenario.Scenario{
					Name:      "off-path-" + strconv.Itoa(i),
					Mutations: []scenario.Mutation{{Op: scenario.OpScaleLink, Link: link, BandwidthFactor: factor()}},
				})
			}
			on := pickDistinct(r, g.onPath, gridFork+gridCold)
			for i, link := range on[:gridFork] {
				req.Scenarios = append(req.Scenarios, scenario.Scenario{
					Name:      "on-path-bw-" + strconv.Itoa(i),
					Mutations: []scenario.Mutation{{Op: scenario.OpScaleLink, Link: link, BandwidthFactor: factor()}},
				})
			}
			req.Scenarios = append(req.Scenarios, scenario.Scenario{
				Name:      "on-path-lat",
				Mutations: []scenario.Mutation{{Op: scenario.OpScaleLink, Link: on[gridFork], LatencyFactor: 1 + factor()}},
			})
			return op{
				kind: opEvaluate, method: "POST", path: "/pilgrim/evaluate/" + platformName,
				body: evaluateBody(req), eval: req,
				minLen: 1024, maxLen: 1 << 20,
			}
		},
	}
}

// evaluateBody renders the request as a client would send it (compact
// JSON, hand-written so the generator stays cheap beside the server).
func evaluateBody(req *pilgrim.EvaluateRequest) []byte {
	var b bytes.Buffer
	b.Grow(4096)
	b.WriteString(`{"scenarios":[`)
	for i, sc := range req.Scenarios {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"name":"` + sc.Name + `"`)
		if len(sc.Mutations) > 0 {
			b.WriteString(`,"mutations":[`)
			for j, m := range sc.Mutations {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(`{"op":"` + string(m.Op) + `","link":"` + m.Link + `"`)
				if m.BandwidthFactor != 0 {
					b.WriteString(`,"bandwidth_factor":`)
					b.Write(strconv.AppendFloat(nil, m.BandwidthFactor, 'g', -1, 64))
				}
				if m.LatencyFactor != 0 {
					b.WriteString(`,"latency_factor":`)
					b.Write(strconv.AppendFloat(nil, m.LatencyFactor, 'g', -1, 64))
				}
				b.WriteByte('}')
			}
			b.WriteByte(']')
		}
		b.WriteByte('}')
	}
	b.WriteString(`],"queries":[`)
	for i, q := range req.Queries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"kind":"` + q.Kind + `","transfers":[`)
		for k, t := range q.Transfers {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"src":"` + t.Src + `","dst":"` + t.Dst + `","size":`)
			b.Write(appendSize(nil, t.Size))
			b.WriteByte('}')
		}
		b.WriteString(`]}`)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// churnState holds what ingest-churn's writes are drawn from: the links on
// the polled queries' routes (so every write changes the answers) with
// their nominal bandwidths.
type churnState struct {
	seed  int64
	links []string
	bw    []float64
}

// updates returns the link revisions of write k: churnLinksPerWrite
// distinct on-path links, each set to 50–100 % of its nominal bandwidth.
func (c *churnState) updates(k uint64) []platform.LinkUpdate {
	r := newRNG(c.seed, 7, k)
	out := make([]platform.LinkUpdate, 0, churnLinksPerWrite)
	for len(out) < churnLinksPerWrite {
		i := r.intn(len(c.links))
		dup := false
		for _, u := range out {
			dup = dup || u.Link == c.links[i]
		}
		if dup {
			continue
		}
		// 1e-3 resolution keeps the JSON rendering short and exact.
		f := 0.5 + float64(r.intn(500))/1000
		out = append(out, platform.LinkUpdate{Link: c.links[i], Bandwidth: math.Floor(c.bw[i] * f), Latency: -1})
	}
	return out
}

// updateBody renders the timestamped update_links body of one write.
func updateBody(t int64, updates []platform.LinkUpdate) []byte {
	b := make([]byte, 0, 96+80*len(updates))
	b = append(b, `{"time":`...)
	b = strconv.AppendInt(b, t, 10)
	b = append(b, `,"source":"`+writeSource+`","updates":[`...)
	for i, u := range updates {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"link":"`...)
		b = append(b, u.Link...)
		b = append(b, `","bandwidth":`...)
		b = strconv.AppendFloat(b, u.Bandwidth, 'f', -1, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func (w *world) ingestChurn(seed int64) *workload {
	shapes := w.shapes(seed, 6, distinctChurnQueries, transfersPerPoll, w.anyPair)
	reads := make([]op, len(shapes))
	on := make(map[int32]bool)
	for i, s := range shapes {
		reads[i] = predictOp(s.transfers(newRNG(seed, 8, uint64(i))))
		for _, p := range s {
			route, err := w.snap.Route(p[0], p[1])
			if err != nil {
				panic(err) // anyPair draws two hosts of one connected platform
			}
			for _, ref := range route.Refs {
				on[ref.LinkIndex()] = true
			}
		}
	}
	churn := &churnState{seed: seed}
	for li := int32(0); li < int32(w.snap.NumLinks()); li++ {
		if on[li] {
			churn.links = append(churn.links, w.snap.LinkName(li))
			churn.bw = append(churn.bw, w.snap.LinkBandwidth(li))
		}
	}
	return &workload{
		name: "ingest-churn", why: whyIngestRun, durable: true, churn: churn,
		sizeNote: "16 reads of 30 transfers over 4 distinct queries per 8-link write",
		gen: func(n uint64) op {
			if n%churnWriteEvery == 0 {
				return op{
					kind: opUpdate, method: "POST", path: "/pilgrim/update_links/" + platformName,
					minLen: 64, maxLen: 512,
				}
			}
			// n - n/17 - 1 numbers the reads 0, 1, 2, …, so the four queries
			// rotate evenly through each cycle's 16 read slots.
			return reads[(n-n/churnWriteEvery-1)%uint64(len(reads))]
		},
	}
}
