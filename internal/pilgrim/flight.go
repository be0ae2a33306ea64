package pilgrim

import (
	"context"
	"sync"
)

// This file is the in-flight coalescing (singleflight) layer of the
// ForecastCache. The LRU dedups requests only *after* an answer lands:
// N concurrent identical requests all miss and race N simulations for
// one cache slot. The flight table closes that window — the first
// requester of a canonical key becomes the *leader* and simulates;
// duplicates arriving before the answer lands become *followers*, wait
// on the leader's flight (honoring their own deadlines), and count as
// coalesced hits instead of paying for duplicate simulations.
//
// Deadlock discipline: a participant that both leads and follows
// flights (an evaluate group) MUST complete every flight it leads
// before waiting on any flight it follows. Leaders never block on
// anything a follower holds — predict/select leaders simulate inline,
// evaluate leaders register flights only after their pool slot is
// acquired — so every wait chain terminates at a leader that completes
// without waiting.

// flightCall is one in-flight simulation other requests can wait on.
// done closes exactly once, after the result fields are set; the close
// is the happens-before edge followers read through.
type flightCall struct {
	once      sync.Once
	done      chan struct{}
	preds     []Prediction // canonical order; valid once done is closed
	err       error
	abandoned bool // the leader unwound without an answer (panic); retry
}

// lead probes the LRU and the flight table under one lock acquisition.
// Exactly one of the three outcomes holds:
//
//   - cached != nil: LRU hit (counted), use it;
//   - leader == true: the caller owns a new flight for key and MUST
//     settle it via complete or abandon (f is nil when fc is nil —
//     complete/abandon tolerate that);
//   - otherwise: another request owns the flight (counted as a
//     coalesced hit); the caller may wait on f.done.
func (fc *ForecastCache) lead(key forecastKey) (cached []Prediction, f *flightCall, leader bool) {
	return fc.probe(key, true)
}

// leadOrRun is lead for callers that cannot park mid-request (the
// evaluate base-answer phase resolves answers other phases depend on):
// when another request already owns the key's flight it reports a plain
// miss and the caller recomputes instead of waiting — the pre-coalescing
// racing behavior, bounded to this one narrow window.
func (fc *ForecastCache) leadOrRun(key forecastKey) (cached []Prediction, f *flightCall, leader bool) {
	return fc.probe(key, false)
}

// probe is lead (join: follow an owned flight) and leadOrRun (!join: run
// beside it, f == nil so the owner is not displaced).
func (fc *ForecastCache) probe(key forecastKey, join bool) (cached []Prediction, f *flightCall, leader bool) {
	if fc == nil {
		return nil, nil, true
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if el, ok := fc.entries[key]; ok {
		return fc.touchLocked(el).preds, nil, false
	}
	owner := fc.flights[key]
	if owner != nil && join {
		fc.coalesced++
		return nil, owner, false
	}
	fc.misses++
	if owner == nil {
		f = &flightCall{done: make(chan struct{})}
		fc.flights[key] = f
	}
	return nil, f, true
}

// settle retires a flight and wakes its waiters; idempotent, so a
// blanket deferred abandon is safe after an explicit complete.
func (fc *ForecastCache) settle(key forecastKey, f *flightCall, preds []Prediction, err error, abandoned bool) {
	if fc == nil || f == nil {
		return
	}
	select {
	case <-f.done: // settled, so already out of the table: a blanket abandon
		return
	default:
	}
	fc.mu.Lock()
	if fc.flights[key] == f {
		delete(fc.flights, key)
	}
	fc.mu.Unlock()
	f.once.Do(func() {
		f.preds, f.err, f.abandoned = preds, err, abandoned
		close(f.done)
	})
}

// complete publishes a flight's result. A successful answer is stored
// BEFORE the flight settles: a request arriving after completion must
// find the LRU entry, or it would re-simulate a key that was already
// paid for. f is nil for an answer computed beside another request's
// flight (leadOrRun); it is stored all the same.
func (fc *ForecastCache) complete(key forecastKey, f *flightCall, preds []Prediction, err error) {
	if err == nil {
		fc.Store(key, preds)
	}
	fc.settle(key, f, preds, err, false)
}

// abandon retires a flight without an answer (the leader panicked out
// from under it); waiters re-enter the lead/wait protocol. No-op on a
// flight already completed.
func (fc *ForecastCache) abandon(key forecastKey, f *flightCall) {
	fc.settle(key, f, nil, nil, true)
}

// waitFlight waits for another request's in-flight answer. When the
// leader abandoned, it falls back to simulate through the full protocol
// (so concurrent abandoned waiters still elect one retry leader). The
// caller's ctx bounds the wait: a follower honors its own deadline even
// when the leader runs long.
func (fc *ForecastCache) waitFlight(ctx context.Context, key forecastKey, f *flightCall, simulate func() ([]Prediction, error)) ([]Prediction, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if f.abandoned {
		return fc.predictCanonical(ctx, key, simulate)
	}
	return f.preds, f.err
}

// predictCanonical answers one canonical key through the LRU and the
// flight table: at most one simulation per key is in flight at a time,
// and duplicate requests wait for it instead of racing to fill the
// cache. simulate must return predictions in canonical order.
func (fc *ForecastCache) predictCanonical(ctx context.Context, key forecastKey, simulate func() ([]Prediction, error)) ([]Prediction, error) {
	if fc == nil {
		return simulate()
	}
	for {
		cached, f, leader := fc.lead(key)
		if cached != nil {
			return cached, nil
		}
		if leader {
			return fc.runFlight(key, f, simulate)
		}
		select {
		case <-f.done:
			if f.abandoned {
				continue
			}
			return f.preds, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// runFlight simulates on behalf of every waiter of a led flight; the
// deferred abandon only fires when simulate panics.
func (fc *ForecastCache) runFlight(key forecastKey, f *flightCall, simulate func() ([]Prediction, error)) (preds []Prediction, err error) {
	defer fc.abandon(key, f)
	preds, err = simulate()
	fc.complete(key, f, preds, err)
	return preds, err
}
