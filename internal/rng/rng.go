// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The standard library's math/rand does not guarantee a stable stream
// across Go releases once helper methods are involved, and experiments in
// this repository must be bit-reproducible from a seed so that published
// tables can be regenerated exactly. The package therefore implements
// xoshiro256** (Blackman & Vigna) seeded through splitmix64, both of which
// are fully specified algorithms with well-known reference outputs.
//
// A Source is NOT safe for concurrent use; derive independent streams with
// Split when parallelism is needed.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator.
type Source struct {
	s0, s1, s2, s3 uint64
	// spare holds a cached second Gaussian deviate from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// splitmix64 advances *x and returns the next splitmix64 output.
// It is used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the generator state from seed, discarding any cached
// Gaussian deviate.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9E3779B97F4A7C15
	}
	r.spareOK = false
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives a new, independent Source from r. The derived stream is a
// deterministic function of r's current state, and r is advanced so that
// successive Splits yield distinct children.
func (r *Source) Split() *Source {
	var c Source
	r.SplitInto(&c)
	return &c
}

// SplitInto is Split into caller-owned storage: it reseeds child with
// the stream Split would return, advancing r identically, so owners of
// many sources can keep them in one flat slice.
func (r *Source) SplitInto(child *Source) {
	child.Reseed(r.Uint64() ^ 0xD1B54A32D192ED03)
}

// StreamSeed derives the seed of the id-th member of the counter-based
// stream family keyed by seed. Unlike Split, which must advance a parent
// generator, any member of a family is reachable in O(1) — the property
// the per-node traffic streams rely on — and the double splitmix64 mix
// decorrelates both nearby seeds and nearby ids.
func StreamSeed(seed, id uint64) uint64 {
	h := seed
	base := splitmix64(&h)
	h = base ^ (id+1)*0x9E3779B97F4A7C15
	return splitmix64(&h)
}

// NewStream returns the id-th stream of the family keyed by seed: a
// splittable/indexed generator construction where every (seed, id) pair
// yields a fixed, pairwise-independent xoshiro256** stream without
// deriving ids 0..id-1 first.
func NewStream(seed, id uint64) *Source {
	return New(StreamSeed(seed, id))
}

// Never is the sentinel Geometric returns for an impossible event
// (p <= 0): no finite number of trials ever succeeds.
const Never = ^uint64(0)

// Geometric returns the number of Bernoulli(p) trials up to and
// including the first success — the Geometric(p) distribution on
// {1, 2, ...} — via inverse-CDF sampling, consuming exactly one
// uniform draw. A sequence of per-trial Bool(p) draws and a sequence
// of Geometric(p) gaps describe the same arrival process, which is
// what lets the traffic generators skip-sample quiet cycles instead
// of rolling every one. p >= 1 returns 1; p <= 0 returns Never.
// Results that would overflow (astronomically long gaps at tiny p)
// saturate to Never.
func (r *Source) Geometric(p float64) uint64 {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		return Never
	}
	u := r.Float64()
	// G = floor(ln(1-u)/ln(1-p)) + 1 with 1-u in (0, 1]; log1p keeps the
	// ratio accurate for small p, where ln(1-p) underflows to -p.
	g := math.Floor(math.Log1p(-u) / math.Log1p(-p))
	if g >= float64(Never-1) {
		return Never
	}
	return uint64(g) + 1
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-then-shift rejection method: unbiased and fast.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *Source) Norm(mean, stddev float64) float64 {
	if r.spareOK {
		r.spareOK = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.spareOK = true
	return mean + stddev*u*f
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := r.Float64()
	// u is in [0,1); 1-u is in (0,1] so the log is finite.
	return -math.Log(1-u) / rate
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the given swap
// function, mirroring math/rand's contract.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
