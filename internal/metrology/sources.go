package metrology

import (
	"math"

	"pilgrim/internal/stats"
)

// This file provides the simulated metric sources feeding the collectors:
// the power-consumption metric of the paper's worked metrology example
// (§IV-C1: sagittaire-1's "pdu" Ganglia custom metric reading ~168.9 W)
// and link/latency sources supporting the latency-measurement future work.

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

// LatencySource models a smokeping-style RTT measure in seconds: a floor
// latency with queueing excursions during busy hours.
func LatencySource(floor float64, seed int64) Source {
	rng := stats.NewRNG(seed)
	return func(ts int64) float64 {
		day := float64(ts%86400) / 86400
		busy := 0.5 * (1 - math.Cos(2*math.Pi*day)) // 0..1
		// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
		excess := float64(floor * 0.2 * busy * rng.LogNormal(0, 0.3))
		return floor + excess
	}
}

// TrafficCounterSource models an interface byte counter: cumulative bytes
// with a diurnal rate profile around meanRate bytes/s.
func TrafficCounterSource(meanRate float64, seed int64) Source {
	rng := stats.NewRNG(seed)
	total := 0.0
	lastTS := int64(0)
	return func(ts int64) float64 {
		if lastTS == 0 {
			lastTS = ts
			return total
		}
		dt := float64(ts - lastTS)
		lastTS = ts
		day := float64(ts%86400) / 86400
		// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
		rate := meanRate * (0.4 + float64(0.6*0.5*(1-math.Cos(2*math.Pi*day)))) * rng.LogNormal(0, 0.2)
		total += float64(rate * dt)
		return total
	}
}

// ConstantSource returns a fixed value (useful in tests and as a stub for
// externally fed metrics).
func ConstantSource(v float64) Source {
	return func(int64) float64 { return v }
}
