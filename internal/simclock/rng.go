package simclock

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG is a deterministic random stream. Distinct simulation components draw
// from distinct named streams derived from one master seed, so adding a new
// consumer does not perturb the draws seen by existing ones.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a stream seeded directly with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Stream derives a child stream from a parent seed and a stable name.
func Stream(seed int64, name string) *RNG {
	return NewRNG(streamSeed(seed, name))
}

// ResetStream puts g in the state Stream(seed, name) starts in,
// re-seeding its source in place instead of allocating one.
func (g *RNG) ResetStream(seed int64, name string) {
	g.r.Seed(streamSeed(seed, name))
}

func streamSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n). n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard-normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Exp returns an exponentially distributed sample with the given mean.
// A non-positive mean yields +Inf (the event never happens).
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return math.Inf(1)
	}
	return g.r.ExpFloat64() * mean
}

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Float64()*(hi-lo)
}

// Normal returns a normal sample with the given mean and stddev.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + g.r.NormFloat64()*stddev
}

// LogNormalAround returns a sample centred on mean with multiplicative
// noise sigma (in log space), useful for durations and prices that must
// stay positive.
func (g *RNG) LogNormalAround(mean, sigma float64) float64 {
	if mean <= 0 {
		return 0
	}
	return mean * math.Exp(g.r.NormFloat64()*sigma-sigma*sigma/2)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// Pick returns a uniformly random element of xs. It panics on an empty
// slice because callers must guard emptiness themselves (it is always a
// logic error here).
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.Intn(len(xs))]
}
