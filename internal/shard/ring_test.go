package shard

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func mapOf(names ...string) *Map {
	m := &Map{}
	for i, n := range names {
		m.Workers = append(m.Workers, Worker{Name: n, URL: fmt.Sprintf("http://10.0.0.%d:8080", i+1)})
	}
	return m
}

func ringOf(t testing.TB, names ...string) *Ring {
	t.Helper()
	r, err := NewRing(mapOf(names...))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("platform-%d.site.grid5000.fr", i)
	}
	return out
}

// TestRingDeterministicAcrossBuilds pins the core control-plane
// contract: two rings built from the same membership — in any listing
// order, in any process — route every key identically. The golden
// assignments below additionally freeze the hash itself: if they ever
// change, a rolling fleet upgrade would re-home platforms mid-flight.
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	a := ringOf(t, "w1", "w2", "w3")
	b := ringOf(t, "w3", "w1", "w2") // same members, different listing order
	for _, k := range keys(500) {
		if oa, ob := a.Owner(k), b.Owner(k); oa.Name != ob.Name {
			t.Fatalf("key %q: ring A routes to %s, ring B to %s", k, oa.Name, ob.Name)
		}
	}
	// Golden assignments: the hash is part of the shard-map contract.
	golden := map[string]string{
		"g5k_test":     "w1",
		"g5k_cabinets": "w1",
		"g5k_mini":     "w3",
	}
	for k, want := range golden {
		if got := a.Owner(k).Name; got != want {
			t.Errorf("golden route changed: %s now owned by %s, want %s (hash contract broken)", k, got, want)
		}
	}
}

// TestRingMinimalMovement proves the rendezvous property the WAL warm
// restarts rely on: growing or shrinking the fleet by one worker remaps
// only about n/k platforms — and strictly only those moving to (or off)
// the changed worker.
func TestRingMinimalMovement(t *testing.T) {
	const n = 4000
	ks := keys(n)
	small := ringOf(t, "w1", "w2", "w3")
	big := ringOf(t, "w1", "w2", "w3", "w4")

	moved := 0
	for _, k := range ks {
		before, after := small.Owner(k).Name, big.Owner(k).Name
		if before != after {
			moved++
			if after != "w4" {
				t.Fatalf("key %q moved %s -> %s, but only the new worker w4 may gain keys", k, before, after)
			}
		}
	}
	// Expect ~n/k (= n/4) keys to move; allow generous statistical slack
	// but fail on gross imbalance (a broken mix would move ~0 or ~all).
	want := float64(n) / 4
	if f := float64(moved); f < want*0.7 || f > want*1.3 {
		t.Fatalf("adding a 4th worker moved %d of %d keys, want about %.0f (n/k)", moved, n, want)
	}

	// Removal is the mirror image: only w4's keys move back.
	for _, k := range ks {
		if big.Owner(k).Name != "w4" && small.Owner(k).Name != big.Owner(k).Name {
			t.Fatalf("key %q not owned by w4 changed owner on removal", k)
		}
	}
}

// TestRingBalance checks the load spread: with many keys every worker
// should own roughly 1/k of them.
func TestRingBalance(t *testing.T) {
	r := ringOf(t, "a", "b", "c", "d", "e")
	counts := map[string]int{}
	const n = 10000
	for _, k := range keys(n) {
		counts[r.Owner(k).Name]++
	}
	want := float64(n) / 5
	for _, w := range r.Workers() {
		if c := float64(counts[w.Name]); math.Abs(c-want) > want*0.2 {
			t.Errorf("worker %s owns %d of %d keys, want about %.0f ±20%%", w.Name, counts[w.Name], n, want)
		}
	}
}

// TestTableConcurrentReload races routing against shard-map reloads —
// the SIGHUP path. Run under -race; the invariant is that every Owner
// call sees one coherent ring (one of the memberships ever stored).
func TestTableConcurrentReload(t *testing.T) {
	rings := []*Ring{
		ringOf(t, "w1", "w2"),
		ringOf(t, "w1", "w2", "w3"),
		ringOf(t, "w2", "w3"),
	}
	valid := map[string]bool{"w1": true, "w2": true, "w3": true}
	tab := NewTable(rings[0])

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ks := keys(64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w := tab.Owner(ks[i%len(ks)])
				if !valid[w.Name] {
					t.Errorf("routed to unknown worker %q", w.Name)
					return
				}
			}
		}()
	}
	for i := 0; i < 1000; i++ {
		tab.Store(rings[i%len(rings)])
	}
	close(stop)
	wg.Wait()
}
