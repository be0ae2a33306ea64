package pilgrim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pilgrim/internal/g5k"
	"pilgrim/internal/platgen"
	"pilgrim/internal/sim"
)

func miniEntry(t testing.TB) PlatformEntry {
	t.Helper()
	plat, err := platgen.Generate(g5k.Mini(), platgen.Options{Variant: platgen.G5KTest})
	if err != nil {
		t.Fatal(err)
	}
	return PlatformEntry{Platform: plat, Config: sim.DefaultConfig()}
}

func TestForecastCacheHitsAndMisses(t *testing.T) {
	entry := miniEntry(t)
	fc := NewForecastCache(8)
	reqs := []TransferRequest{
		{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "graphene-1.nancy.grid5000.fr", Size: 5e8},
		{Src: "sagittaire-2.lyon.grid5000.fr", Dst: "sagittaire-3.lyon.grid5000.fr", Size: 5e8},
	}
	first, err := fc.PredictCtx(context.Background(), "g5k_test", entry, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := fc.Stats(); st.Hits != 0 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("after first query: %+v", st)
	}
	second, err := fc.PredictCtx(context.Background(), "g5k_test", entry, reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := fc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat query: %+v", st)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cached prediction %d differs: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestForecastCacheCanonicalizesOrder(t *testing.T) {
	entry := miniEntry(t)
	fc := NewForecastCache(8)
	a := TransferRequest{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "graphene-1.nancy.grid5000.fr", Size: 5e8}
	b := TransferRequest{Src: "sagittaire-2.lyon.grid5000.fr", Dst: "sagittaire-3.lyon.grid5000.fr", Size: 5e8}

	fwd, err := fc.PredictCtx(context.Background(), "g5k_test", entry, []TransferRequest{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := fc.PredictCtx(context.Background(), "g5k_test", entry, []TransferRequest{b, a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The permuted request is the same simulation: it must hit, and each
	// prediction must still answer its own request slot.
	if st := fc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("permuted query did not hit: %+v", st)
	}
	if rev[0].Src != b.Src || rev[1].Src != a.Src {
		t.Errorf("answers not in request order: %+v", rev)
	}
	if rev[0] != fwd[1] || rev[1] != fwd[0] {
		t.Errorf("permuted answers differ: fwd=%+v rev=%+v", fwd, rev)
	}
}

func TestForecastCacheKeysDistinguishWorkloads(t *testing.T) {
	entry := miniEntry(t)
	fc := NewForecastCache(8)
	base := []TransferRequest{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 5e8}}
	if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, base, nil); err != nil {
		t.Fatal(err)
	}
	// Different size, different platform name, and added background
	// traffic must all be distinct cache entries.
	bigger := []TransferRequest{{Src: base[0].Src, Dst: base[0].Dst, Size: 6e8}}
	if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, bigger, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.PredictCtx(context.Background(), "other_platform", entry, base, nil); err != nil {
		t.Fatal(err)
	}
	bg := [][2]string{{"sagittaire-2.lyon.grid5000.fr", "sagittaire-3.lyon.grid5000.fr"}}
	if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, base, bg); err != nil {
		t.Fatal(err)
	}
	if st := fc.Stats(); st.Hits != 0 || st.Misses != 4 || st.Size != 4 {
		t.Fatalf("distinct workloads collided: %+v", st)
	}
}

func TestForecastCacheEviction(t *testing.T) {
	entry := miniEntry(t)
	fc := NewForecastCache(2)
	mk := func(size float64) []TransferRequest {
		return []TransferRequest{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: size}}
	}
	for _, size := range []float64{1e8, 2e8, 3e8} {
		if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, mk(size), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := fc.Stats(); st.Size != 2 {
		t.Fatalf("size = %d, want capacity 2: %+v", st.Size, st)
	}
	// 1e8 was evicted (LRU); 3e8 still resident.
	if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, mk(3e8), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, mk(1e8), nil); err != nil {
		t.Fatal(err)
	}
	st := fc.Stats()
	if st.Hits != 1 || st.Misses != 4 {
		t.Errorf("eviction accounting wrong: %+v", st)
	}
}

func TestForecastCacheDisabled(t *testing.T) {
	entry := miniEntry(t)
	fc := NewForecastCache(0)
	reqs := []TransferRequest{{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 5e8}}
	for i := 0; i < 2; i++ {
		if _, err := fc.PredictCtx(context.Background(), "g5k_test", entry, reqs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := fc.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 0 {
		t.Errorf("disabled cache stored or hit: %+v", st)
	}
}

func TestHTTPCacheStats(t *testing.T) {
	_, client := newTestServer(t)
	reqs := []TransferRequest{
		{Src: "sagittaire-1.lyon.grid5000.fr", Dst: "sagittaire-2.lyon.grid5000.fr", Size: 5e8},
	}
	for i := 0; i < 3; i++ {
		if _, err := client.PredictTransfers("g5k_test", reqs); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("server cache stats = %+v, want 1 miss + 2 hits", st)
	}
	if st.Capacity != DefaultForecastCacheSize || st.Size != 1 {
		t.Errorf("server cache geometry = %+v", st)
	}
}

// TestCanonicalizeMatchesInsertionSort pins the canonical order across the
// two sorts canonicalize picks between: for every length on both sides of
// insertionSortMax — duplicates, shared prefixes and equal sizes included —
// the permutation is the one a stable insertion sort by (Src, Dst, Size)
// produces. Cached answers are stored in that order, so it may not drift.
func TestCanonicalizeMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	hosts := []string{"a", "a.b", "a.b.c", "b", "sagittaire-1.lyon.grid5000.fr", "sagittaire-10.lyon.grid5000.fr"}
	sizes := []float64{1, 5e8, 5e8, math.Copysign(0, -1), 0}
	for n := 0; n <= 100; n++ {
		transfers := make([]TransferRequest, n)
		for i := range transfers {
			transfers[i] = TransferRequest{
				Src:  hosts[rng.Intn(len(hosts))],
				Dst:  hosts[rng.Intn(len(hosts))],
				Size: sizes[rng.Intn(len(sizes))],
			}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		less := func(a, b int) bool {
			ta, tb := transfers[a], transfers[b]
			if ta.Src != tb.Src {
				return ta.Src < tb.Src
			}
			if ta.Dst != tb.Dst {
				return ta.Dst < tb.Dst
			}
			return ta.Size < tb.Size
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && less(want[j], want[j-1]); j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if got := canonicalize(transfers); !slices.Equal(got, want) {
			t.Fatalf("n=%d: canonicalize = %v, insertion sort = %v", n, got, want)
		}
	}
}

// stringCacheKey is the string key the cache used before forecastKey, kept
// as the oracle of TestForecastKeyPartitionsLikeStringKey only.
func stringCacheKey(platform string, entry PlatformEntry, transfers []TransferRequest, order []int, background [][2]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\x1c%d\x1c%+v", platform, entry.snapshot().Epoch(), entry.Config)
	for _, i := range order {
		t := transfers[i]
		b.WriteByte(0x1e)
		b.WriteString(t.Src)
		b.WriteByte(0x1f)
		b.WriteString(t.Dst)
		b.WriteByte(0x1f)
		b.WriteString(strconv.FormatUint(math.Float64bits(t.Size), 16))
	}
	for _, p := range background {
		b.WriteByte(0x1d)
		b.WriteString(p[0])
		b.WriteByte(0x1f)
		b.WriteString(p[1])
	}
	return b.String()
}

// TestForecastKeyPartitionsLikeStringKey: two requests share a forecastKey
// exactly when they shared the old string key — the struct key changes how
// a key is spelled, not which requests are the same simulation.
func TestForecastKeyPartitionsLikeStringKey(t *testing.T) {
	entry := miniEntry(t).WithSnapshot()
	otherEpoch, otherConfig := entry, entry
	var err error
	if otherEpoch.Snapshot, err = entry.Snapshot.WithLinkState(nil); err != nil {
		t.Fatal(err)
	}
	otherConfig.Config.TCPGamma = 0
	type request struct {
		platform   string
		entry      PlatformEntry
		transfers  []TransferRequest
		background [][2]string
	}
	keys := func(r request) (forecastKey, string) {
		q := canonicalizeQuery(r.platform, r.entry, r.transfers, r.background)
		return q.key, stringCacheKey(r.platform, r.entry, r.transfers, q.order, q.background)
	}
	check := func(a, b request) {
		t.Helper()
		ka, sa := keys(a)
		kb, sb := keys(b)
		if (ka == kb) != (sa == sb) {
			t.Fatalf("struct keys equal = %v, string keys equal = %v\n a: %+v\n b: %+v", ka == kb, sa == sb, a, b)
		}
	}

	// Names that contain the parameter separator and the key's own
	// separators, so a fragment boundary can be forged.
	names := []string{"a", "b", "a,b", "a\x1fb", "b\x1e", "a\x1fb\x1f0", "\x1d", "", "a\x1c"}
	// Equal sizes with different bit patterns, and near misses.
	sizes := []float64{5e8, 5e8 + 1, 0, math.Copysign(0, -1), math.Nextafter(5e8, 6e8)}
	one := func(src, dst string, size float64) []TransferRequest {
		return []TransferRequest{{Src: src, Dst: dst, Size: size}}
	}
	base := request{"p", entry, one("a", "b", 5e8), nil}
	for _, other := range []request{
		base,
		{"q", entry, one("a", "b", 5e8), nil},
		{"p", otherEpoch, one("a", "b", 5e8), nil},
		{"p", otherConfig, one("a", "b", 5e8), nil},
		{"p", entry, one("a", "b", 0), nil},
		{"p", entry, one("a", "b", math.Copysign(0, -1)), nil},
		{"p", entry, one("a\x1fb", "", 5e8), nil},
		{"p", entry, one("a", "b", 5e8), [][2]string{{"a", "b"}}},
		{"p", entry, one("a", "b", 5e8), [][2]string{}},
		{"p", entry, append(one("a", "b", 5e8), one("a", "b", 5e8)...), nil},
		{"p", entry, one("a", "b\x1d"+"a\x1f"+"b", 5e8), nil},
	} {
		check(base, other)
	}
	check(request{"p", entry, one("a", "b", 0), nil}, request{"p", entry, one("a", "b", math.Copysign(0, -1)), nil})

	rng := rand.New(rand.NewSource(16))
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	random := func() request {
		r := request{platform: pick([]string{"p", "q"}), entry: []PlatformEntry{entry, otherEpoch, otherConfig}[rng.Intn(3)]}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r.transfers = append(r.transfers, TransferRequest{Src: pick(names[:4]), Dst: pick(names), Size: sizes[rng.Intn(len(sizes))]})
		}
		for n := rng.Intn(3); n > 0; n-- {
			r.background = append(r.background, [2]string{pick(names[:3]), pick(names[:3])})
		}
		return r
	}
	equal := 0
	for i := 0; i < 200; i++ {
		a := random()
		b := random()
		if i%2 == 0 {
			// The same request with its parameters permuted: must stay equal.
			b = a
			b.transfers = append([]TransferRequest(nil), a.transfers...)
			rng.Shuffle(len(b.transfers), func(i, j int) { b.transfers[i], b.transfers[j] = b.transfers[j], b.transfers[i] })
			b.background = append([][2]string(nil), a.background...)
			rng.Shuffle(len(b.background), func(i, j int) { b.background[i], b.background[j] = b.background[j], b.background[i] })
		}
		check(a, b)
		ka, _ := keys(a)
		if kb, _ := keys(b); ka == kb {
			equal++
		}
	}
	if equal < 100 || equal == 200 {
		t.Fatalf("%d of 200 random pairs were equal: the pairs do not exercise both sides", equal)
	}
}

// TestConfigBitsCoversSimConfig fails when sim.Config grows a field that
// configBits — and so every cache key — does not carry.
func TestConfigBitsCoversSimConfig(t *testing.T) {
	if got, want := reflect.TypeOf(configBits{}).NumField(), reflect.TypeOf(sim.Config{}).NumField(); got != want {
		t.Fatalf("configBits has %d fields, sim.Config has %d: add the new field to configBits and pictureKeyOf", got, want)
	}
	a := miniEntry(t).WithSnapshot()
	b := a
	for i, mutate := range []func(*sim.Config){
		func(c *sim.Config) { c.BandwidthFactor++ },
		func(c *sim.Config) { c.LatencyFactor++ },
		func(c *sim.Config) { c.TCPGamma++ },
		func(c *sim.Config) { c.GammaUsesLatencyFactor = !c.GammaUsesLatencyFactor },
		func(c *sim.Config) { c.MinRTT++ },
	} {
		b.Config = a.Config
		mutate(&b.Config)
		if pictureKeyOf("p", a) == pictureKeyOf("p", b) {
			t.Errorf("mutation %d of sim.Config does not change the picture key", i)
		}
	}
}

// TestForecastCacheEvictsUnderNaNConfig: a NaN model parameter must not make
// a key that can be stored but never found or deleted — such an entry would
// outlive its LRU slot in the index forever.
func TestForecastCacheEvictsUnderNaNConfig(t *testing.T) {
	entry := miniEntry(t)
	entry.Config.TCPGamma = math.NaN()
	fc := NewForecastCache(2)
	canonical := []Prediction{{Src: "a", Dst: "b", Size: 1, Duration: 1}}
	key := func(i int) forecastKey {
		return forecastKey{pictureKeyOf("p", entry), fmt.Sprint("query-", i)}
	}
	for i := 0; i < 5; i++ {
		fc.mu.Lock()
		fc.entries.Add(key(i), cacheEntry{preds: canonical})
		fc.mu.Unlock()
	}
	if cached, _, _ := fc.lead(key(4)); cached == nil {
		t.Error("an entry stored under a NaN config cannot be found")
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if n := fc.entries.Len(); n != 2 {
		t.Fatalf("LRU holds %d entries, capacity 2: evicted entries leaked", n)
	}
}

// predictCanonical answers one canonical key through the LRU and the
// flight table, simulate returning predictions in canonical order: the
// forecast cache's coalescing protocol with nothing around it.
func (fc *ForecastCache) predictCanonical(ctx context.Context, key forecastKey, simulate func() ([]Prediction, error)) ([]Prediction, error) {
	ent, err := fc.entries.Do(ctx, key, func() (cacheEntry, error) {
		preds, err := simulate()
		return cacheEntry{preds: preds}, err
	})
	return ent.preds, err
}
