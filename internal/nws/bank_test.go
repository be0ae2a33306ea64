package nws

import (
	"math"
	"testing"
)

// TestBankMatchesStandaloneSelectors checks the vectorized bank is
// bit-identical to independent Selectors fed the same series: same
// forecasts, same winning predictor, per link and per quantity.
func TestBankMatchesStandaloneSelectors(t *testing.T) {
	const links = 7
	bank := NewBank(links)
	refBW := make([]*Selector, links)
	refLat := make([]*Selector, links)
	for i := range refBW {
		refBW[i] = NewSelector()
		refLat[i] = NewSelector()
	}

	// Deterministic per-link series with different shapes (trend, noise,
	// step) so different predictors win on different links.
	v := func(link, step int) float64 {
		x := float64(step)
		switch link % 3 {
		case 0:
			return 1e8 + float64(1e5*x)
		case 1:
			return 1e8 + float64(3e6*math.Sin(x/3))
		default:
			if step > 20 {
				return 5e7
			}
			return 1.2e8
		}
	}
	for step := 0; step < 40; step++ {
		for link := 0; link < links; link++ {
			bw := v(link, step)
			lat := 1e-3 + float64(1e-5*float64(link)) + float64(1e-6*float64(step%5))
			bank.ObserveBandwidth(int32(link), bw)
			bank.ObserveLatency(int32(link), lat)
			refBW[link].Update(bw)
			refLat[link].Update(lat)
		}
	}

	if got := len(bank.Observed()); got != links {
		t.Fatalf("observed %d links, want %d", got, links)
	}
	for link := 0; link < links; link++ {
		gotBW, ok1 := bank.ForecastBandwidth(int32(link))
		wantBW, ok2 := refBW[link].Predict()
		if ok1 != ok2 || math.Float64bits(gotBW) != math.Float64bits(wantBW) {
			t.Errorf("link %d: bank bandwidth %v (%v) != selector %v (%v)", link, gotBW, ok1, wantBW, ok2)
		}
		gotLat, ok1 := bank.ForecastLatency(int32(link))
		wantLat, ok2 := refLat[link].Predict()
		if ok1 != ok2 || math.Float64bits(gotLat) != math.Float64bits(wantLat) {
			t.Errorf("link %d: bank latency %v != selector %v", link, gotLat, wantLat)
		}
		if got, want := bank.BestBandwidthPredictor(int32(link)), refBW[link].Best(); got != want {
			t.Errorf("link %d: best predictor %q != %q", link, got, want)
		}
	}
}

// TestBankEmpty checks the no-history paths.
func TestBankEmpty(t *testing.T) {
	bank := NewBank(4)
	if n := len(bank.Observed()); n != 0 {
		t.Fatalf("fresh bank observed %d links", n)
	}
	if _, ok := bank.ForecastBandwidth(2); ok {
		t.Fatal("forecast without history must fail")
	}
	if _, ok := bank.ForecastLatency(2); ok {
		t.Fatal("forecast without history must fail")
	}
	if bank.BestBandwidthPredictor(2) != "" {
		t.Fatal("best predictor without history must be empty")
	}
	// Bandwidth-only observation: latency still has no forecast.
	bank.ObserveBandwidth(1, 1e8)
	if _, ok := bank.ForecastLatency(1); ok {
		t.Fatal("latency forecast without latency history must fail")
	}
	if len(bank.Observed()) != 1 || bank.Observed()[0] != 1 {
		t.Fatalf("observed = %v", bank.Observed())
	}
}

// TestBankForecastAllocFree pins the O(1)-allocations claim: once the
// batteries exist, a full observe+forecast cycle over every link
// allocates nothing.
func TestBankForecastAllocFree(t *testing.T) {
	const links = 256
	bank := NewBank(links)
	for step := 0; step < 30; step++ {
		for link := int32(0); link < links; link++ {
			bank.ObserveBandwidth(link, 1e8+float64(step*int(link)))
			bank.ObserveLatency(link, 1e-3)
		}
	}
	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		for _, link := range bank.Observed() {
			bank.ObserveBandwidth(link, 1.01e8)
			if v, ok := bank.ForecastBandwidth(link); ok {
				sink += v
			}
			if v, ok := bank.ForecastLatency(link); ok {
				sink += v
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm observe+forecast cycle allocates %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// BenchmarkBankForecast1k measures draining forecasts for a 1000-link
// platform — the per-horizon-query extrapolation cost. allocs/op must
// stay at 0.
func BenchmarkBankForecast1k(b *testing.B) {
	const links = 1000
	bank := NewBank(links)
	for step := 0; step < 50; step++ {
		for link := int32(0); link < links; link++ {
			bank.ObserveBandwidth(link, 1e8+float64(1e4*float64(step)))
			bank.ObserveLatency(link, 1e-3+float64(1e-7*float64(step%7)))
		}
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, link := range bank.Observed() {
			if v, ok := bank.ForecastBandwidth(link); ok {
				sink += v
			}
			if v, ok := bank.ForecastLatency(link); ok {
				sink += v
			}
		}
	}
	_ = sink
}
