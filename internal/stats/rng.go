// Package stats is the probability and statistics substrate of the PFM
// library: seeded random streams, the distributions used by the simulator
// and the learners (normal, exponential, Weibull, gamma, log-normal,
// uniform), descriptive statistics, and numerically stable log-space
// helpers.
//
// Everything is deterministic given a seed; the whole reproduction flows its
// randomness through RNG streams so experiments replay bit-identically.
package stats

import "math/rand"

// RNG is a seeded random stream. It wraps math/rand.Rand so all packages
// share one way of obtaining reproducible randomness, and so call sites
// never reach for the process-global generator.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream; the i-th split of a given
// stream is deterministic. Use it to give subsystems their own streams so
// adding draws in one place does not perturb another.
func (g *RNG) Split(i int64) *RNG {
	return NewRNG(StreamSeed(g.r.Int63(), i+1))
}

// StreamSeed derives the k-th seed from base: base ^ (golden · k), golden
// being 2⁶⁴/φ (the Fibonacci-hashing constant) with its sign bit cleared, so
// nearby k give well-spread seeds. Split seeds its children with it, and a
// predictor's retrain generation k trains from StreamSeed(Seed, k) — an
// independent, reproducible stream with no wall clock involved.
func StreamSeed(base, k int64) int64 {
	const golden = int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)
	return base ^ golden*k
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// NormFloat64 returns a standard normal draw.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// ExpFloat64 returns a unit-mean exponential draw.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Intn returns a uniform draw in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Categorical draws an index from the (unnormalized, non-negative) weight
// vector w. It panics if all weights are zero or any is negative.
func (g *RNG) Categorical(w []float64) int {
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic("stats: negative categorical weight")
		}
		total += v
	}
	if total == 0 {
		panic("stats: all categorical weights zero")
	}
	u := g.r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}
