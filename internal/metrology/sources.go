package metrology

import (
	"math"

	"pilgrim/internal/stats"
)

// This file provides the simulated metric source feeding the collectors:
// the power-consumption metric of the paper's worked metrology example
// (§IV-C1: sagittaire-1's "pdu" Ganglia custom metric reading ~168.9 W).

// PowerSource models a compute node's PDU power draw in watts: an idle
// baseline with slow diurnal load swings and sampling noise. The paper's
// example host (sagittaire-1, dual Opteron) idles around 168-169 W.
func PowerSource(baseline, loadSwing float64, seed int64) Source {
	rng := stats.NewRNG(seed)
	return func(ts int64) float64 {
		// Diurnal component: peaks mid-day (86400 s period).
		day := float64(ts%86400) / 86400
		// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
		diurnal := float64(loadSwing * 0.5 * (1 - math.Cos(2*math.Pi*day)))
		noise := rng.Normal(0, 0.06)
		return baseline + diurnal + noise
	}
}
