// Package scenario implements first-class what-if scenarios over compiled
// platform epochs: a Scenario is a named, ordered, composable list of
// mutations — degrade or set a link, fail a link or a host, inject
// background traffic, shift the evaluation time — that resolves against a
// platform.Snapshot into one derived epoch (Snapshot.ApplyOverlay: batch
// copy-on-write, one epoch id per scenario) plus a set of background
// flows to contend with every query.
//
// The paper's forecasting loop asks the simulator one question against
// one network picture; real forecasting workloads (failure sweeps,
// degradation studies, capacity planning) ask bundles of hypotheticals at
// once. Scenarios make each hypothetical an O(changed resources)
// derivation of the live picture, cheap enough to evaluate by the dozen
// per request — the pilgrim evaluate endpoint fans N scenarios × M
// queries over its worker pool and deduplicates identical (epoch, config,
// query) sub-simulations through the forecast cache.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"pilgrim/internal/platform"
)

// Op names one mutation kind. The string values are the JSON wire form.
type Op string

// Mutation operations.
const (
	// OpScaleLink multiplies a link's bandwidth and/or latency by a
	// factor relative to the value already accumulated for the scenario
	// (mutations compose in order): {"op":"scale_link","link":L,
	// "bandwidth_factor":0.6} models a 40% degradation.
	OpScaleLink Op = "scale_link"
	// OpSetLink states absolute values: {"op":"set_link","link":L,
	// "bandwidth":9.1e7,"latency":2e-4}. Omitted fields keep the current
	// value.
	OpSetLink Op = "set_link"
	// OpFailLink takes a link down entirely; transfers routed across it
	// are rejected with an explicit error.
	OpFailLink Op = "fail_link"
	// OpFailHost takes a host down: computations on it and transfers
	// from/to it are rejected.
	OpFailHost Op = "fail_host"
	// OpBgTraffic injects persistent background flows src->dst (Flows
	// parallel streams, default 1) into every query of the scenario.
	OpBgTraffic Op = "bg_traffic"
	// OpBgEstimate injects the platform's registered background-traffic
	// estimate (bgtraffic.FromMetrology wired into the pilgrim registry)
	// instead of hand-written flows. Resolved by the evaluate layer.
	OpBgEstimate Op = "bg_estimate"
	// OpAtTime evaluates the scenario against the platform's epoch at
	// Time (Unix seconds) — past through the timeline, future through the
	// NWS forecast epoch — instead of the newest observation. Resolved by
	// the evaluate layer before the overlay applies.
	OpAtTime Op = "at_time"
)

// Mutation is one step of a scenario. Which fields apply depends on Op;
// Validate rejects contradictory combinations.
type Mutation struct {
	Op Op `json:"op"`

	// Link and Host name the mutated resource (scale_link, set_link,
	// fail_link / fail_host).
	Link string `json:"link,omitempty"`
	Host string `json:"host,omitempty"`

	// BandwidthFactor and LatencyFactor scale the accumulated value
	// (scale_link; 0 means "leave this dimension alone").
	BandwidthFactor float64 `json:"bandwidth_factor,omitempty"`
	LatencyFactor   float64 `json:"latency_factor,omitempty"`

	// Bandwidth and Latency state absolute values (set_link).
	Bandwidth *float64 `json:"bandwidth,omitempty"`
	Latency   *float64 `json:"latency,omitempty"`

	// Src, Dst and Flows describe injected background traffic
	// (bg_traffic).
	Src   string `json:"src,omitempty"`
	Dst   string `json:"dst,omitempty"`
	Flows int    `json:"flows,omitempty"`

	// Time is the at_time evaluation instant (Unix seconds).
	Time int64 `json:"time,omitempty"`
}

// Scenario is a named, ordered list of mutations. The zero Scenario (no
// mutations) is the baseline: it resolves to the base epoch itself, so
// its queries share cache entries with plain predict_transfers traffic.
type Scenario struct {
	Name      string     `json:"name,omitempty"`
	Mutations []Mutation `json:"mutations,omitempty"`
}

// Validate checks every mutation's shape (resource names are resolved
// later, against the snapshot the scenario is applied to).
func (sc *Scenario) Validate() error {
	for i, m := range sc.Mutations {
		bad := func(format string, args ...interface{}) error {
			return fmt.Errorf("scenario %q mutation %d (%s): %s", sc.Name, i, m.Op, fmt.Sprintf(format, args...))
		}
		switch m.Op {
		case OpScaleLink:
			if m.Link == "" {
				return bad("missing link")
			}
			if m.BandwidthFactor == 0 && m.LatencyFactor == 0 {
				return bad("needs bandwidth_factor and/or latency_factor")
			}
			if m.BandwidthFactor < 0 || math.IsNaN(m.BandwidthFactor) || math.IsInf(m.BandwidthFactor, 0) {
				return bad("invalid bandwidth_factor %v", m.BandwidthFactor)
			}
			if m.LatencyFactor < 0 || math.IsNaN(m.LatencyFactor) || math.IsInf(m.LatencyFactor, 0) {
				return bad("invalid latency_factor %v", m.LatencyFactor)
			}
		case OpSetLink:
			if m.Link == "" {
				return bad("missing link")
			}
			if m.Bandwidth == nil && m.Latency == nil {
				return bad("needs bandwidth and/or latency")
			}
			if m.Bandwidth != nil && (*m.Bandwidth <= 0 || math.IsNaN(*m.Bandwidth) || math.IsInf(*m.Bandwidth, 0)) {
				return bad("invalid bandwidth %v (use fail_link to take a link down)", *m.Bandwidth)
			}
			if m.Latency != nil && (*m.Latency < 0 || math.IsNaN(*m.Latency) || math.IsInf(*m.Latency, 0)) {
				return bad("invalid latency %v", *m.Latency)
			}
		case OpFailLink:
			if m.Link == "" {
				return bad("missing link")
			}
		case OpFailHost:
			if m.Host == "" {
				return bad("missing host")
			}
		case OpBgTraffic:
			if m.Src == "" || m.Dst == "" {
				return bad("needs src and dst")
			}
			if m.Src == m.Dst {
				return bad("src equals dst")
			}
			if m.Flows < 0 {
				return bad("invalid flows %d", m.Flows)
			}
		case OpBgEstimate:
			// No parameters: the estimate is registered per platform.
		case OpAtTime:
			if m.Time <= 0 {
				return bad("needs a positive Unix time")
			}
		default:
			return fmt.Errorf("scenario %q mutation %d: unknown op %q", sc.Name, i, m.Op)
		}
	}
	return nil
}

// At returns the scenario's at_time instant, if any (the last one wins,
// consistent with mutations composing in order).
func (sc *Scenario) At() (int64, bool) {
	var t int64
	found := false
	for _, m := range sc.Mutations {
		if m.Op == OpAtTime {
			t, found = m.Time, true
		}
	}
	return t, found
}

// WantsBgEstimate reports whether any mutation asks for the platform's
// registered background-traffic estimate.
func (sc *Scenario) WantsBgEstimate() bool {
	for _, m := range sc.Mutations {
		if m.Op == OpBgEstimate {
			return true
		}
	}
	return false
}

// Resolved is a scenario lowered against one base snapshot: the dense
// overlay ApplyOverlay consumes, the background flows every query of the
// scenario contends with, and the canonical provenance text recorded on
// the derived epoch. Two scenarios that state the same hypothetical
// network — however their mutation lists are phrased — resolve to equal
// overlays and share one derived epoch through Key.
type Resolved struct {
	Links      []platform.OverlayLink
	Hosts      []platform.OverlayHost
	Background [][2]string
	Provenance string
}

// Resolve validates the scenario and lowers its mutations against the
// base snapshot: names become dense indices, scale factors multiply into
// absolute values (composing in mutation order), failures become explicit
// zeros, and background injections accumulate. bgEstimate supplies the
// flows OpBgEstimate expands to (nil when the platform has none
// registered — then OpBgEstimate is an error).
func (sc *Scenario) Resolve(base *platform.Snapshot, bgEstimate [][2]string) (*Resolved, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	type linkState struct {
		bw, lat float64 // NaN = untouched
	}
	links := make(map[int32]*linkState)
	hosts := make(map[int32]float64)
	var bg [][2]string

	linkOf := func(name string) (int32, *linkState, error) {
		li, ok := base.LinkIndex(name)
		if !ok {
			return 0, nil, fmt.Errorf("scenario %q: unknown link %q", sc.Name, name)
		}
		st := links[li]
		if st == nil {
			st = &linkState{bw: math.NaN(), lat: math.NaN()}
			links[li] = st
		}
		return li, st, nil
	}

	for _, m := range sc.Mutations {
		switch m.Op {
		case OpScaleLink:
			li, st, err := linkOf(m.Link)
			if err != nil {
				return nil, err
			}
			if m.BandwidthFactor > 0 {
				cur := st.bw
				if math.IsNaN(cur) {
					cur = base.LinkBandwidth(li)
				}
				st.bw = cur * m.BandwidthFactor
			}
			if m.LatencyFactor > 0 {
				cur := st.lat
				if math.IsNaN(cur) {
					cur = base.LinkLatency(li)
				}
				st.lat = cur * m.LatencyFactor
			}
		case OpSetLink:
			_, st, err := linkOf(m.Link)
			if err != nil {
				return nil, err
			}
			if m.Bandwidth != nil {
				st.bw = *m.Bandwidth
			}
			if m.Latency != nil {
				st.lat = *m.Latency
			}
		case OpFailLink:
			_, st, err := linkOf(m.Link)
			if err != nil {
				return nil, err
			}
			st.bw = 0
		case OpFailHost:
			hi, ok := base.HostIndex(m.Host)
			if !ok {
				return nil, fmt.Errorf("scenario %q: unknown host %q", sc.Name, m.Host)
			}
			hosts[hi] = 0
		case OpBgTraffic:
			n := m.Flows
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				bg = append(bg, [2]string{m.Src, m.Dst})
			}
		case OpBgEstimate:
			if bgEstimate == nil {
				return nil, fmt.Errorf("scenario %q: no background-traffic estimate registered for this platform", sc.Name)
			}
			bg = append(bg, bgEstimate...)
		case OpAtTime:
			// Resolved by the caller before choosing the base snapshot.
		}
	}

	r := &Resolved{}
	linkIdx := make([]int32, 0, len(links))
	for li := range links {
		linkIdx = append(linkIdx, li)
	}
	sort.Slice(linkIdx, func(i, j int) bool { return linkIdx[i] < linkIdx[j] })
	for _, li := range linkIdx {
		st := links[li]
		r.Links = append(r.Links, platform.OverlayLink{Link: li, Bandwidth: st.bw, Latency: st.lat})
	}
	hostIdx := make([]int32, 0, len(hosts))
	for hi := range hosts {
		hostIdx = append(hostIdx, hi)
	}
	sort.Slice(hostIdx, func(i, j int) bool { return hostIdx[i] < hostIdx[j] })
	for _, hi := range hostIdx {
		r.Hosts = append(r.Hosts, platform.OverlayHost{Host: hi, Speed: hosts[hi]})
	}
	r.Background = bg
	r.Provenance = r.provenance(base)
	return r, nil
}

// provenance renders the resolved overlay as canonical text: one clause
// per touched resource, index order, exact values. Recorded on the
// derived epoch (Snapshot.Provenance) so a forecast answer can always be
// traced back to the hypothetical that produced it.
func (r *Resolved) provenance(base *platform.Snapshot) string {
	var b strings.Builder
	for _, u := range r.Links {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		name := base.LinkName(u.Link)
		switch {
		case u.Bandwidth == 0:
			fmt.Fprintf(&b, "fail link %s", name)
		default:
			fmt.Fprintf(&b, "link %s", name)
			if !math.IsNaN(u.Bandwidth) {
				fmt.Fprintf(&b, " bw=%s", strconv.FormatFloat(u.Bandwidth, 'g', -1, 64))
			}
			if !math.IsNaN(u.Latency) {
				fmt.Fprintf(&b, " lat=%s", strconv.FormatFloat(u.Latency, 'g', -1, 64))
			}
		}
	}
	for _, u := range r.Hosts {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		if u.Speed == 0 {
			fmt.Fprintf(&b, "fail host %s", base.HostName(u.Host))
		} else {
			fmt.Fprintf(&b, "host %s speed=%s", base.HostName(u.Host),
				strconv.FormatFloat(u.Speed, 'g', -1, 64))
		}
	}
	return b.String()
}

// Empty reports whether the overlay touches no resource — the scenario
// only injects traffic and/or shifts time, so it evaluates against the
// base epoch itself and shares its cache keys.
func (r *Resolved) Empty() bool { return len(r.Links) == 0 && len(r.Hosts) == 0 }

// Key is the canonical digest of the overlay's epoch-affecting state
// (links and hosts; background flows contend per query and are keyed by
// the forecast cache instead). Two scenarios with equal keys applied to
// the same base epoch describe the same hypothetical network and may
// share one derived snapshot — the dedup handle of the evaluate layer.
func (r *Resolved) Key() string {
	var b strings.Builder
	for _, u := range r.Links {
		fmt.Fprintf(&b, "l%d:%x:%x;", u.Link, math.Float64bits(u.Bandwidth), math.Float64bits(u.Latency))
	}
	for _, u := range r.Hosts {
		fmt.Fprintf(&b, "h%d:%x;", u.Host, math.Float64bits(u.Speed))
	}
	return b.String()
}

// Apply derives the scenario's epoch from base: the base snapshot itself
// when the overlay is empty (so baseline scenarios share cache entries
// with plain queries), otherwise one ApplyOverlay batch.
func (r *Resolved) Apply(base *platform.Snapshot) (*platform.Snapshot, error) {
	if r.Empty() {
		return base, nil
	}
	return base.ApplyOverlay(r.Links, r.Hosts, r.Provenance)
}

// Compile is Resolve followed by Apply — the one-call form for callers
// that don't pool derived epochs.
func (sc *Scenario) Compile(base *platform.Snapshot, bgEstimate [][2]string) (*platform.Snapshot, *Resolved, error) {
	r, err := sc.Resolve(base, bgEstimate)
	if err != nil {
		return nil, nil, err
	}
	snap, err := r.Apply(base)
	if err != nil {
		return nil, nil, err
	}
	return snap, r, nil
}
