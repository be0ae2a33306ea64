package nws

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestSelectorStateRoundTrip drives a selector through a noisy series,
// exports mid-stream, restores into a fresh selector, and checks the two
// stay bit-identical through further observations — including a JSON
// round trip, the form the WAL snapshot stores.
func TestSelectorStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := NewSelector()
	for i := 0; i < 137; i++ {
		orig.Update(1e8 + float64(3e7*rng.Float64()))
	}

	raw, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var st SelectorState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored := NewSelector()
	if err := restored.ImportState(st); err != nil {
		t.Fatalf("import: %v", err)
	}

	if restored.n != orig.n {
		t.Fatalf("restored n=%d, want %d", restored.n, orig.n)
	}
	for i := 0; i < 200; i++ {
		check := func(tag string) {
			pv, pok := orig.Predict()
			rv, rok := restored.Predict()
			if pok != rok || pv != rv {
				t.Fatalf("step %d %s: restored predicts (%v, %v), original (%v, %v)", i, tag, rv, rok, pv, pok)
			}
			if orig.Best() != restored.Best() {
				t.Fatalf("step %d %s: restored best %q, original %q", i, tag, restored.Best(), orig.Best())
			}
		}
		check("pre")
		v := 9e7 + float64(5e7*rng.Float64())
		orig.Update(v)
		restored.Update(v)
		check("post")
	}
}

func TestSelectorImportRejectsMismatchedBattery(t *testing.T) {
	small := NewSelector(NewLast(), NewRunningMean())
	full := NewSelector()
	if err := full.ImportState(small.ExportState()); err == nil {
		t.Fatal("import of a 2-predictor state into the 8-predictor battery succeeded")
	}
	// Same length, different predictor: names must match positionally.
	a := NewSelector(NewLast(), NewSlidingMean(5))
	b := NewSelector(NewLast(), NewSlidingMean(7))
	if err := b.ImportState(a.ExportState()); err == nil {
		t.Fatal("import across different window widths succeeded")
	}
}

func TestBankStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := NewBank(32)
	links := []int32{3, 17, 4, 29}
	for i := 0; i < 90; i++ {
		li := links[i%len(links)]
		orig.ObserveBandwidth(li, 5e7+float64(4e7*rng.Float64()))
		if i%3 == 0 {
			orig.ObserveLatency(li, 1e-3*rng.Float64())
		}
	}

	raw, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var st BankState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	restored, err := NewBankFromState(st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}

	if got, want := restored.Observed(), orig.Observed(); len(got) != len(want) {
		t.Fatalf("restored %d observed links, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("observed order diverges at %d: %d vs %d", i, got[i], want[i])
			}
		}
	}
	for _, li := range orig.Observed() {
		ov, ook := orig.ForecastBandwidth(li)
		rv, rok := restored.ForecastBandwidth(li)
		if ov != rv || ook != rok {
			t.Fatalf("link %d bandwidth forecast (%v,%v), want (%v,%v)", li, rv, rok, ov, ook)
		}
		ov, ook = orig.ForecastLatency(li)
		rv, rok = restored.ForecastLatency(li)
		if ov != rv || ook != rok {
			t.Fatalf("link %d latency forecast (%v,%v), want (%v,%v)", li, rv, rok, ov, ook)
		}
		if orig.BestBandwidthPredictor(li) != restored.BestBandwidthPredictor(li) {
			t.Fatalf("link %d best predictor diverges", li)
		}
	}

	// Further observations keep the banks in lockstep.
	for i := 0; i < 40; i++ {
		li := links[i%len(links)]
		v := 6e7 + float64(3e7*rng.Float64())
		orig.ObserveBandwidth(li, v)
		restored.ObserveBandwidth(li, v)
		ov, _ := orig.ForecastBandwidth(li)
		rv, _ := restored.ForecastBandwidth(li)
		if ov != rv {
			t.Fatalf("post-restore step %d: forecasts diverge (%v vs %v)", i, rv, ov)
		}
	}
}

func TestBankStateRejectsInvalid(t *testing.T) {
	cases := []BankState{
		{Links: -1},
		{Links: 4, Observed: []BankLinkState{{Link: 9}}},
		{Links: 4, Observed: []BankLinkState{{Link: 1}, {Link: 1}}},
	}
	for i, st := range cases {
		if _, err := NewBankFromState(st); err == nil {
			t.Errorf("case %d: invalid bank state accepted", i)
		}
	}
}
