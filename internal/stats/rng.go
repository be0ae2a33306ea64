package stats

import (
	"errors"
	"math"
	"math/rand"
)

// RNG wraps math/rand with the sampling helpers used by the experiment
// campaign (node draws, jitter distributions). Every experiment owns one
// seeded RNG so campaigns are reproducible run-to-run.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Normal returns a sample from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 {
	// float64() rounds: no fused multiply-add on any GOARCH (make fma-check).
	return mu + float64(sigma*g.r.NormFloat64())
}

// LogNormal returns a sample whose logarithm is N(mu, sigma^2) distributed.
// It is the jitter model used by the testbed: multiplicative noise around
// exp(mu) that can never produce a negative duration.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Jitter returns base scaled by a lognormal factor with median 1 and
// log-space standard deviation sigma. Jitter(d, 0) == d.
func (g *RNG) Jitter(base, sigma float64) float64 {
	if sigma == 0 {
		return base
	}
	return base * g.LogNormal(0, sigma)
}

// Sample draws k distinct indices from [0, n) uniformly at random (a
// partial Fisher-Yates). It panics if k > n or either is negative.
func (g *RNG) Sample(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic(errors.New("stats: invalid Sample parameters"))
	}
	idx := g.r.Perm(n)
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}

// Shuffle permutes xs in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
