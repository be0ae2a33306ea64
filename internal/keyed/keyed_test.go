package keyed

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// hookLocker is a mutex that runs onLock each time it is acquired: the
// model test uses it to look at the cache from inside the flight
// protocol's own critical sections.
type hookLocker struct {
	sync.Mutex
	onLock func()
}

func (l *hookLocker) Lock() {
	l.Mutex.Lock()
	if l.onLock != nil {
		l.onLock()
	}
}

type pair struct{ k, v int }

func (f *Flight[V]) settled() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// modelFlight is the model's view of one flight.
type modelFlight struct {
	k         int
	f         *Flight[int]
	settled   bool
	abandoned bool
	v         int
	err       error
}

// model is a Cache, sequentially: order is the LRU, most recently used
// first, reused the keys hit since they were added, and open the
// unsettled flight of each key.
type model struct {
	capacity int
	order    []pair
	reused   map[int]bool
	open     map[int]*modelFlight
	evicted  []pair
	counts   Counts
}

func (m *model) find(k int) int {
	return slices.IndexFunc(m.order, func(p pair) bool { return p.k == k })
}

func (m *model) touch(i int) int {
	p := m.order[i]
	m.order = append(append([]pair{p}, m.order[:i]...), m.order[i+1:]...)
	m.counts.Hits++
	m.reused[p.k] = true
	return p.v
}

func (m *model) add(k, v int) {
	if m.capacity <= 0 || m.find(k) >= 0 {
		return
	}
	m.order = append([]pair{{k, v}}, m.order...)
	m.reused[k] = false
	if len(m.order) > m.capacity {
		m.evicted = append(m.evicted, m.order[len(m.order)-1])
		m.order = m.order[:len(m.order)-1]
	}
}

// TestCacheMatchesModel drives seeded random scripts of peek / touch / add /
// lead (joining or not) / complete / abandon / wait through a Cache and a
// sequential model, and compares counters, contents in recency order,
// evictions and flight-table size after every step. Complete runs under a
// hook that fails the test if a successful flight is ever seen settled
// while its answer is not cached yet.
func TestCacheMatchesModel(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("build failed")
	for _, capacity := range []int{0, 1, 2, 7} {
		for seed := int64(0); seed < 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var mu hookLocker
			var evicted []pair
			c := New(&mu, capacity, func(k, v int) { evicted = append(evicted, pair{k, v}) })
			m := &model{capacity: capacity, reused: map[int]bool{}, open: map[int]*modelFlight{}}
			var led, joined, settled []*modelFlight
			fail := func(step int, format string, args ...any) {
				t.Helper()
				t.Fatalf("capacity %d seed %d step %d: %s", capacity, seed, step, fmt.Sprintf(format, args...))
			}
			for step := 0; step < 200; step++ {
				k := rng.Intn(5)
				switch op := rng.Intn(8); {
				case op == 7: // peek: neither touched nor counted
					mu.Lock()
					e, ok := c.Peek(k)
					mu.Unlock()
					if i := m.find(k); i >= 0 {
						if !ok || e.Value != m.order[i].v || e.Reused() != m.reused[k] {
							fail(step, "peek(%d) = %v, want %d (reused %v)", k, e, m.order[i].v, m.reused[k])
						}
					} else if ok {
						fail(step, "peek(%d) found %d, want nothing", k, e.Value)
					}
				case op == 0: // touch
					mu.Lock()
					e, ok := c.Peek(k)
					if ok {
						c.Touch(e)
					}
					mu.Unlock()
					if i := m.find(k); i >= 0 {
						if want := m.touch(i); !ok || e.Value != want {
							fail(step, "touch(%d) = %v, want %d", k, e, want)
						}
					} else if ok {
						fail(step, "peek(%d) found %d, want nothing", k, e.Value)
					}
				case op == 1: // add
					mu.Lock()
					c.Add(k, step)
					mu.Unlock()
					m.add(k, step)
				case op <= 3: // lead: join (op 2) or run beside the owner (op 3)
					join := op == 2
					mu.Lock()
					e, f, leader := c.Lead(k, join)
					mu.Unlock()
					owner := m.open[k]
					switch i := m.find(k); {
					case i >= 0:
						if want := m.touch(i); e == nil || e.Value != want || f != nil || leader {
							fail(step, "lead(%d) = %v %v %v, want the hit %d", k, e, f, leader, want)
						}
					case owner != nil && join:
						m.counts.Coalesced++
						if e != nil || f != owner.f || leader {
							fail(step, "lead(%d) = %v %v %v, want to join the open flight", k, e, f, leader)
						}
						joined = append(joined, owner)
					case owner != nil:
						m.counts.Misses++
						if e != nil || f != nil || !leader {
							fail(step, "lead(%d, no join) = %v %v %v, want a miss beside the owner", k, e, f, leader)
						}
						c.Complete(k, nil, step, nil) // the answer computed beside is stored all the same
						m.add(k, step)
					default:
						m.counts.Misses++
						if e != nil || f == nil || !leader {
							fail(step, "lead(%d) = %v %v %v, want a new flight", k, e, f, leader)
						}
						mf := &modelFlight{k: k, f: f}
						m.open[k] = mf
						led = append(led, mf)
					}
				case op == 4 && len(led) > 0: // complete
					i := rng.Intn(len(led))
					mf := led[i]
					led = slices.Delete(led, i, i+1)
					var err error
					if rng.Intn(4) == 0 {
						err = boom
					}
					if err == nil && capacity > 0 {
						mu.onLock = func() {
							if _, cached := c.index[mf.k]; mf.f.settled() && !cached {
								fail(step, "flight for %d settled before its answer was stored", mf.k)
							}
						}
					}
					c.Complete(mf.k, mf.f, step, err)
					mu.onLock = nil
					mu.Lock()
					_, cached := c.index[mf.k]
					mu.Unlock()
					if !mf.f.settled() || (err == nil && capacity > 0 && !cached) {
						fail(step, "completed flight for %d: settled %v, cached %v", mf.k, mf.f.settled(), cached)
					}
					if err == nil {
						m.add(mf.k, step)
					}
					delete(m.open, mf.k)
					mf.settled, mf.v, mf.err = true, step, err
					settled = append(settled, mf)
				case op == 5 && len(led) > 0: // abandon
					i := rng.Intn(len(led))
					mf := led[i]
					led = slices.Delete(led, i, i+1)
					c.Abandon(mf.k, mf.f)
					delete(m.open, mf.k)
					mf.settled, mf.abandoned = true, true
					settled = append(settled, mf)
				case op == 5 && len(settled) > 0: // a blanket abandon of a settled flight is a no-op
					mf := settled[rng.Intn(len(settled))]
					c.Abandon(mf.k, mf.f)
				case op == 6 && len(joined) > 0: // wait
					i := rng.Intn(len(joined))
					mf := joined[i]
					if mf.abandoned && m.open[mf.k] != nil {
						continue // re-entering would join a flight nobody settles in this script
					}
					joined = slices.Delete(joined, i, i+1)
					ctx := context.Background()
					if !mf.settled {
						ctx = canceled
					}
					built := false
					v, err := c.Wait(ctx, mf.k, mf.f, func() (int, error) {
						built = true
						return -step, nil
					})
					switch {
					case !mf.settled:
						if !errors.Is(err, context.Canceled) {
							fail(step, "wait with an expired context = %d, %v", v, err)
						}
					case !mf.abandoned:
						if v != mf.v || err != mf.err || built {
							fail(step, "wait = %d, %v, want %d, %v", v, err, mf.v, mf.err)
						}
					case m.find(mf.k) >= 0: // re-entered and hit
						if want := m.touch(m.find(mf.k)); v != want || err != nil || built {
							fail(step, "wait after abandon = %d, %v, want the hit %d", v, err, want)
						}
					default: // re-entered and led
						m.counts.Misses++
						m.add(mf.k, -step)
						if v != -step || err != nil || !built {
							fail(step, "wait after abandon = %d, %v (built %v), want to build %d", v, err, built, -step)
						}
					}
				}

				mu.Lock()
				var got []pair
				c.Each(func(k, v int) { got = append(got, pair{k, v}) })
				counts, n, flights := c.Counts(), c.Len(), c.Flights()
				mu.Unlock()
				if counts != m.counts {
					fail(step, "counts %+v, model %+v", counts, m.counts)
				}
				if n != len(m.order) || !slices.Equal(got, m.order) {
					fail(step, "contents %v (len %d), model %v", got, n, m.order)
				}
				if !slices.Equal(evicted, m.evicted) {
					fail(step, "evicted %v, model %v", evicted, m.evicted)
				}
				if flights != len(m.open) {
					fail(step, "%d flights open, model %d", flights, len(m.open))
				}
			}
		}
	}
}

// TestDoOneBuildPerKeyPerGeneration is the coalescing contract under
// -race: each generation, 64 goroutines ask for 8 fresh keys at once, and
// each key is built once. Every first build holds its flight open until
// all the duplicates have joined one. In odd generations those first
// builds panic instead of answering: their followers re-enter the
// protocol and elect exactly one more builder per key.
func TestDoOneBuildPerKeyPerGeneration(t *testing.T) {
	const keys, callers, generations = 8, 64, 6
	var mu sync.Mutex
	c := New[[2]int, int](&mu, keys, nil)
	counts := func() Counts {
		mu.Lock()
		defer mu.Unlock()
		return c.Counts()
	}
	for gen := 0; gen < generations; gen++ {
		panics := gen%2 == 1
		before := counts()
		var builds [keys]atomic.Int32
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < callers; i++ {
			done.Add(1)
			go func(k int) {
				defer done.Done()
				start.Wait()
				first := false
				defer func() {
					if r := recover(); r != nil && !(panics && first) {
						t.Errorf("generation %d key %d: unexpected panic %v", gen, k, r)
					}
				}()
				v, err := c.Do(context.Background(), [2]int{gen, k}, func() (int, error) {
					if builds[k].Add(1) == 1 {
						first = true
						for counts().Coalesced < before.Coalesced+keys*(callers/keys-1) {
							runtime.Gosched()
						}
						if panics {
							panic("leader unwinds")
						}
					}
					return gen*100 + k, nil
				})
				if err != nil || v != gen*100+k {
					t.Errorf("generation %d key %d: got %d, %v", gen, k, v, err)
				}
			}(i % keys)
		}
		start.Done()
		done.Wait()
		want := int32(1)
		if panics {
			want = 2
		}
		for k := range builds {
			if n := builds[k].Load(); n != want {
				t.Errorf("generation %d key %d built %d times, want %d", gen, k, n, want)
			}
		}
		after := counts()
		if got := after.Misses - before.Misses; got != uint64(want)*keys {
			t.Errorf("generation %d: %d misses, want %d", gen, got, want*keys)
		}
		mu.Lock()
		n, flights := c.Len(), c.Flights()
		mu.Unlock()
		if n != keys || flights != 0 {
			t.Errorf("generation %d: %d entries, %d open flights; want %d and 0", gen, n, flights, keys)
		}
	}
}
