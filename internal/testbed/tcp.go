package testbed

import (
	"fmt"
	"math"
	"sort"

	"pilgrim/internal/flow"
	"pilgrim/internal/g5k"
	"pilgrim/internal/stats"
)

// Transfer is one TCP transfer to execute on the emulated testbed.
// Src and Dst are fully qualified node names.
type Transfer struct {
	Src  string
	Dst  string
	Size float64 // bytes
}

// Measurement is the observed outcome of one Transfer, as iperf would
// report it: wall-clock from connection initiation to final report.
type Measurement struct {
	Transfer
	// Duration is the measured completion time in seconds.
	Duration float64
	// DataTime is the noiseless time spent moving bytes (diagnostics).
	DataTime float64
	// SetupTime is the connection establishment time (diagnostics).
	SetupTime float64
}

// Testbed emulates concurrent TCP transfers on the physical network
// derived from a Grid'5000 reference description. It is not safe for
// concurrent use: runs reuse one flow system, constraint table and flow
// arena across RunTransfers calls (reset per run, so results are
// bit-identical to fresh state, but steady-state runs allocate little).
type Testbed struct {
	cfg Config
	net *network
	rng *stats.RNG

	sys   *flow.System
	cnsts map[*resource]*flow.Constraint
	flows []*tcpFlow // recycled flow structs, grown to the peak batch size

	clusterCache map[[2]string][]string
}

// New creates a testbed for the reference with the given configuration.
func New(ref *g5k.Reference, cfg Config) (*Testbed, error) {
	net, err := newNetwork(ref, cfg)
	if err != nil {
		return nil, err
	}
	return &Testbed{
		cfg:   cfg,
		net:   net,
		rng:   stats.NewRNG(cfg.Seed),
		sys:   flow.NewSystem(),
		cnsts: make(map[*resource]*flow.Constraint),
	}, nil
}

// Reseed restarts the random stream; campaigns call it per repetition so
// that a run is a pure function of (workload, seed).
func (tb *Testbed) Reseed(seed int64) { tb.rng = stats.NewRNG(seed) }

// RTT returns the emulated round-trip time between two nodes in seconds.
func (tb *Testbed) RTT(src, dst string) (float64, error) {
	hops, err := tb.net.path(src, dst)
	if err != nil {
		return 0, err
	}
	return 2 * pathLatency(hops), nil
}

// flowState tracks one transfer through the TCP lifecycle.
type flowState int

const (
	fsSetup flowState = iota
	fsSlowStart
	fsSteady
	fsDone
)

type tcpFlow struct {
	idx        int
	hops       []hop
	rtt        float64
	weight     float64
	state      flowState
	activateAt float64 // end of connection setup
	nextTick   float64 // next window doubling (slow start)
	cwnd       float64 // bytes
	remaining  float64
	rate       float64
	doneAt     float64
	overhead   float64 // sampled application overhead
	rateJit    float64 // sampled multiplicative data-phase jitter
	// burst flows fit in network buffers: they ramp at their own pace
	// up to line rate without competing in the fluid sharing.
	burst   bool
	lineCap float64 // min hop capacity, the burst rate ceiling

	fv *flow.Variable // live max-min variable while the flow is active
}

// bound returns the flow's window-imposed rate limit.
func (f *tcpFlow) bound(cfg Config) float64 {
	w := f.cwnd
	if f.state == fsSteady || w > cfg.MaxWindow {
		w = cfg.MaxWindow
	}
	return w / f.rtt
}

// RunTransfers emulates the concurrent execution of the given transfers,
// all initiated at the same instant (the experimental protocol of §V-A:
// iperf clients "simultaneously started"). Results are returned in input
// order.
func (tb *Testbed) RunTransfers(transfers []Transfer) ([]Measurement, error) {
	if len(transfers) == 0 {
		return nil, nil
	}
	for len(tb.flows) < len(transfers) {
		tb.flows = append(tb.flows, new(tcpFlow))
	}
	flows := tb.flows[:len(transfers)]
	for i, tr := range transfers {
		if tr.Size <= 0 || math.IsNaN(tr.Size) || math.IsInf(tr.Size, 0) {
			return nil, fmt.Errorf("testbed: invalid size %v for %s->%s", tr.Size, tr.Src, tr.Dst)
		}
		hops, err := tb.net.path(tr.Src, tr.Dst)
		if err != nil {
			return nil, err
		}
		src, err := tb.net.nodeInfoOf(tr.Src)
		if err != nil {
			return nil, err
		}
		rtt := 2 * pathLatency(hops)
		lineCap := math.Inf(1)
		for _, h := range hops {
			if h.res.capacity < lineCap {
				lineCap = h.res.capacity
			}
		}
		*flows[i] = tcpFlow{
			idx:        i,
			hops:       hops,
			rtt:        rtt,
			weight:     math.Pow(rtt, -tb.cfg.RTTFairness),
			state:      fsSetup,
			activateAt: 1.5 * rtt, // SYN, SYN-ACK, ACK+first segment
			cwnd:       tb.cfg.InitialWindow * tb.cfg.MSS,
			remaining:  tr.Size,
			overhead:   tb.cfg.overhead(src.class, tb.rng),
			rateJit:    tb.rng.Jitter(1, tb.cfg.RateJitterSigma),
			burst:      tr.Size <= tb.cfg.BurstBytes,
			lineCap:    lineCap,
		}
	}

	if err := tb.simulate(flows); err != nil {
		return nil, err
	}

	out := make([]Measurement, len(transfers))
	for i, f := range flows {
		dataTime := f.doneAt - f.activateAt
		// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
		measured := f.activateAt + float64(dataTime*f.rateJit) + f.overhead
		out[i] = Measurement{
			Transfer:  transfers[i],
			Duration:  measured,
			DataTime:  dataTime,
			SetupTime: f.activateAt,
		}
	}
	return out, nil
}

// simulate runs the event loop: flow activations, slow-start window
// doublings, and completions, re-solving the weighted max-min share after
// every event batch. One flow system lives for the whole run: flows enter
// it on activation, update their window bound in place, and leave it on
// completion, so each re-solve only touches the components an event
// disturbed. The system itself is the Testbed's, reset at entry — its
// serials restart, so a run's results are independent of previous runs
// while its buffers and recycled structs carry over.
func (tb *Testbed) simulate(flows []*tcpFlow) error {
	now := 0.0
	active := 0
	remainingFlows := len(flows)

	s := tb.sys
	s.Reset()
	clear(tb.cnsts)
	cnsts := tb.cnsts

	// effBound is the flow's window bound, capped at line rate for
	// buffered bursts (which ramp independently of the fluid sharing).
	// It is asserted at every point the window or state changes, so the
	// solver re-solves exactly the components those changes disturb.
	effBound := func(f *tcpFlow) float64 {
		bound := f.bound(tb.cfg)
		if f.burst && f.lineCap < bound {
			bound = f.lineCap
		}
		return bound
	}

	activate := func(f *tcpFlow) error {
		v := s.NewVariable("", f.weight, effBound(f))
		v.SetData(f)
		f.fv = v
		if f.burst {
			return nil // bound-only: no shared constraints
		}
		for _, h := range f.hops {
			c, ok := cnsts[h.res]
			if !ok {
				c = s.NewConstraint(h.res.id, h.res.capacity)
				cnsts[h.res] = c
			}
			if err := s.Attach(v, c); err != nil {
				return fmt.Errorf("testbed: %w", err)
			}
		}
		return nil
	}

	reshare := func() error {
		if err := s.Solve(); err != nil {
			return err
		}
		// Only re-solved flows can have a new rate or newly satisfy the
		// slow-start exit condition (an unchanged rate exits only if the
		// bound moved, which dirties the flow too).
		for _, v := range s.Touched() {
			f, ok := v.Data().(*tcpFlow)
			if !ok || (f.state != fsSlowStart && f.state != fsSteady) {
				continue
			}
			f.rate = f.fv.Rate()
			// Slow-start exit: the network, not the window, limits the
			// flow now; congestion avoidance holds it at its share.
			if f.state == fsSlowStart && f.rate < f.bound(tb.cfg)*(1-1e-9) {
				f.state = fsSteady
				s.SetBound(f.fv, effBound(f))
			}
		}
		return nil
	}

	// Event budget: flows tick O(log(maxWindow/initWindow)) times each
	// plus setup and completion, so any run beyond this bound is a bug
	// (a stalled loop), not a big workload.
	maxEvents := 1000 * (len(flows) + 10)
	events := 0

	const eps = 1e-6
	for remainingFlows > 0 {
		events++
		if events > maxEvents {
			var detail []string
			for _, f := range flows {
				if f.state != fsDone {
					detail = append(detail, fmt.Sprintf(
						"flow %d state=%d remaining=%v rate=%v cwnd=%v nextTick=%v rtt=%v",
						f.idx, f.state, f.remaining, f.rate, f.cwnd, f.nextTick, f.rtt))
				}
			}
			return fmt.Errorf("testbed: event budget exhausted at t=%v:\n%s",
				now, joinLines(detail))
		}
		if err := reshare(); err != nil {
			return err
		}
		// Next event time.
		next := math.Inf(1)
		for _, f := range flows {
			switch f.state {
			case fsSetup:
				if f.activateAt < next {
					next = f.activateAt
				}
			case fsSlowStart:
				if f.nextTick < next {
					next = f.nextTick
				}
				if f.rate > 0 {
					if t := now + f.remaining/f.rate; t < next {
						next = t
					}
				}
			case fsSteady:
				if f.rate > 0 {
					if t := now + f.remaining/f.rate; t < next {
						next = t
					}
				} else {
					return fmt.Errorf("testbed: flow %d stalled at zero rate", f.idx)
				}
			}
		}
		if math.IsInf(next, 1) {
			return fmt.Errorf("testbed: no next event with %d flows remaining", remainingFlows)
		}
		dt := next - now
		if dt < 0 {
			return fmt.Errorf("testbed: time went backwards (%v -> %v)", now, next)
		}
		for _, f := range flows {
			if f.state == fsSlowStart || f.state == fsSteady {
				// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
				f.remaining -= float64(f.rate * dt)
			}
		}
		now = next

		for _, f := range flows {
			switch f.state {
			case fsSetup:
				if f.activateAt <= now+1e-15 {
					f.state = fsSlowStart
					f.nextTick = now + f.rtt
					active++
					if err := activate(f); err != nil {
						return err
					}
				}
			case fsSlowStart, fsSteady:
				// A flow is done when its residue is below the byte
				// epsilon, or when draining it needs less time than the
				// floating-point resolution of `now` can represent —
				// without the second clause, a nearly-done flow at large
				// simulated times yields dt == 0 forever.
				if f.remaining <= eps || f.remaining <= f.rate*now*1e-12 {
					f.remaining = 0
					f.state = fsDone
					f.doneAt = now
					s.RemoveVariable(f.fv) // clears the Data backref
					f.fv = nil
					remainingFlows--
					active--
					continue
				}
				if f.state == fsSlowStart && f.nextTick <= now+1e-15 {
					f.cwnd *= 2
					if f.cwnd >= tb.cfg.MaxWindow {
						f.cwnd = tb.cfg.MaxWindow
						f.state = fsSteady
					}
					f.nextTick = now + f.rtt
					// A burst flow pinned at line rate exits slow start
					// here: its effective bound stops moving once lineCap
					// is the limiter, so the touched-flows check in
					// reshare would never see it again.
					if f.state == fsSlowStart && f.burst && f.cwnd/f.rtt >= f.lineCap*(1-1e-9) {
						f.state = fsSteady
					}
					s.SetBound(f.fv, effBound(f))
				}
			}
		}
	}
	return nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += "  " + l
	}
	return out
}

// NodesOfCluster returns the sorted FQDNs of one cluster's nodes. The
// slice is cached and shared; callers must not mutate it (campaigns call
// this once per repetition).
func (tb *Testbed) NodesOfCluster(site, cluster string) []string {
	key := [2]string{site, cluster}
	if out, ok := tb.clusterCache[key]; ok {
		return out
	}
	var out []string
	for fqdn, info := range tb.net.nodes {
		if info.site == site && info.cluster == cluster {
			out = append(out, fqdn)
		}
	}
	sort.Strings(out)
	if tb.clusterCache == nil {
		tb.clusterCache = make(map[[2]string][]string)
	}
	tb.clusterCache[key] = out
	return out
}

// Reference returns the underlying reference description.
func (tb *Testbed) Reference() *g5k.Reference { return tb.net.ref }
