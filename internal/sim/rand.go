package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). Every stochastic component of the simulator draws from an
// RNG derived from the run seed, so repeated runs with the same seed produce
// byte-identical results. We avoid math/rand so that the stream is stable
// across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Split derives an independent generator from r, keyed by id. It is used to
// give each host/flow its own stream so adding a component does not perturb
// the draws seen by others.
func (r *RNG) Split(id uint64) *RNG {
	// SplitMix64 over (state ^ id) gives well-distributed child seeds.
	return NewRNG(Mix64(r.state ^ (id+1)*0xBF58476D1CE4E5B9))
}

// Mix64 is the SplitMix64 finalizer: a cheap bijective mixer that spreads
// any change in the input over all 64 output bits. Seed derivation (Split)
// and the deterministic ECMP flow hash in internal/netsim are built on it,
// so hash-dependent results stay byte-identical across Go releases and
// worker counts.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Jitter returns a duration uniform in [0, max).
func (r *RNG) Jitter(max Duration) Duration {
	if max <= 0 {
		return 0
	}
	return Duration(r.Uint64() % uint64(max))
}

// Normal returns a draw from a normal distribution with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			m := math.Sqrt(-2 * math.Log(s) / s)
			return mean + stddev*u*m
		}
	}
}
