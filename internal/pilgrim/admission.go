package pilgrim

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrShed is returned by Admission.Acquire when both the in-flight bound
// and the wait queue are full: the server answers 429 with a Retry-After
// hint instead of letting latency collapse under overload.
var ErrShed = errors.New("pilgrim: server over capacity")

// DefaultRetryAfter is the Retry-After hint shed responses carry.
const DefaultRetryAfter = time.Second

// Admission bounds the simulation endpoints' concurrency: at most
// maxInflight requests simulate at once, at most maxQueue more wait for
// a slot, and everything beyond that is shed immediately. Bounding the
// queue is the point — an unbounded queue converts overload into
// unbounded latency; a bounded one converts it into fast 429s the
// client's backoff absorbs.
type Admission struct {
	slots      chan struct{}
	maxQueue   int64
	retryAfter time.Duration

	waiting  atomic.Int64
	inflight atomic.Int64
	admitted atomic.Uint64
	shed     atomic.Uint64
	expired  atomic.Uint64
}

// NewAdmission returns a controller admitting maxInflight concurrent
// requests with a wait queue of maxQueue (maxInflight <= 0 returns nil:
// admission disabled, every request proceeds; maxQueue < 0 means an
// unbounded queue).
func NewAdmission(maxInflight, maxQueue int, retryAfter time.Duration) *Admission {
	if maxInflight <= 0 {
		return nil
	}
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	return &Admission{
		slots:      make(chan struct{}, maxInflight),
		maxQueue:   int64(maxQueue),
		retryAfter: retryAfter,
	}
}

// Acquire admits the request or rejects it: ErrShed when the queue is
// full (answer 429), ctx.Err() when the request's deadline expires while
// queued (answer 504). On success the caller must call the returned
// release exactly once. A nil Admission admits everything.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	select {
	case a.slots <- struct{}{}:
	default:
		if w := a.waiting.Add(1); a.maxQueue >= 0 && w > a.maxQueue {
			a.waiting.Add(-1)
			a.shed.Add(1)
			return nil, ErrShed
		}
		select {
		case a.slots <- struct{}{}:
			a.waiting.Add(-1)
		case <-ctx.Done():
			a.waiting.Add(-1)
			a.expired.Add(1)
			return nil, ctx.Err()
		}
	}
	a.admitted.Add(1)
	a.inflight.Add(1)
	return func() {
		a.inflight.Add(-1)
		<-a.slots
	}, nil
}

// RetryAfter is the backoff hint shed responses should carry.
func (a *Admission) RetryAfter() time.Duration {
	if a == nil {
		return DefaultRetryAfter
	}
	return a.retryAfter
}

// AdmissionStats is the controller accounting surfaced by cache_stats.
type AdmissionStats struct {
	// Enabled is false when no admission bound is configured (every
	// request proceeds; the remaining fields are zero).
	Enabled bool `json:"enabled" metric:"pilgrim_admission_enabled" help:"1 when -max-inflight bounds the simulation endpoints."`
	// MaxInflight/MaxQueue are the configured bounds (MaxQueue -1 =
	// unbounded queue).
	MaxInflight int `json:"max_inflight,omitempty" metric:"-"`
	MaxQueue    int `json:"max_queue,omitempty" metric:"-"`
	// Inflight/Waiting are instantaneous.
	Inflight int64 `json:"inflight" metric:"pilgrim_admission_inflight" help:"Simulation requests currently admitted."`
	Waiting  int64 `json:"waiting" metric:"pilgrim_admission_waiting" help:"Simulation requests queued for admission."`
	// Admitted counts requests that got a slot; Shed those answered 429;
	// Expired those whose deadline passed while queued (504).
	Admitted uint64 `json:"admitted" metric:"pilgrim_admission_admitted_total" help:"Requests that got an admission slot."`
	Shed     uint64 `json:"shed" metric:"pilgrim_admission_shed_total" help:"Requests shed with 429 + Retry-After."`
	Expired  uint64 `json:"expired" metric:"pilgrim_admission_expired_total" help:"Requests whose deadline expired while queued (504)."`
}

// Stats returns a snapshot of the controller counters.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Enabled:     true,
		MaxInflight: cap(a.slots),
		MaxQueue:    int(a.maxQueue),
		Inflight:    a.inflight.Load(),
		Waiting:     a.waiting.Load(),
		Admitted:    a.admitted.Load(),
		Shed:        a.shed.Load(),
		Expired:     a.expired.Load(),
	}
}
