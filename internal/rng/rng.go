// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulator.
//
// Every stochastic process in the simulation (packet arrivals, fading
// oscillator phases, shadowing innovations, backoff draws, LEACH election
// draws, ...) draws from its own Stream, derived from a master seed and a
// stream identifier. Two streams with different identifiers are
// statistically independent, and a simulation re-run with the same master
// seed reproduces bit-identical results regardless of event interleaving,
// because no two processes share a stream.
//
// The generator is xoshiro256**, seeded through splitmix64 as recommended
// by its authors. Both are implemented here so the package depends only on
// the standard library (and keeps output stable across Go releases, unlike
// math/rand's unexported algorithms).
package rng

import (
	"fmt"
	"math"
)

// splitmix64 advances the given state and returns the next output. It is
// used for seeding and for hashing stream identifiers.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source derives independent Streams from a master seed. Source itself is
// stateless; it is safe for concurrent use.
type Source struct {
	seed uint64
}

// NewSource returns a Source rooted at the given master seed.
func NewSource(seed uint64) *Source {
	return &Source{seed: seed}
}

// Reseed re-roots the Source at a new master seed. Streams already
// derived keep their old state; reseed them individually with InitStream.
func (s *Source) Reseed(seed uint64) { s.seed = seed }

// Stream returns the stream named by the (kind, id) pair. The same pair
// always yields a stream with the same initial state.
//
// kind partitions the stream space by purpose (e.g. "arrival", "fading")
// and id distinguishes entities of that purpose (e.g. the node index).
func (s *Source) Stream(kind string, id uint64) *Stream {
	st := &Stream{}
	s.InitStream(st, kind, id)
	return st
}

// InitStream (re)initializes an existing Stream in place to the exact
// state Stream(kind, id) would return, without allocating. It is the
// reset path for long-lived simulation contexts: a reused entity keeps
// its Stream allocation across runs and is rewound to the deterministic
// per-(seed, kind, id) origin.
func (s *Source) InitStream(st *Stream, kind string, id uint64) {
	// Hash the kind string into the seeding state, then mix in the id.
	h := s.seed
	for i := 0; i < len(kind); i++ {
		h = splitmix64(&h) ^ uint64(kind[i])
	}
	h ^= id * 0x9e3779b97f4a7c15
	for i := range st.s {
		st.s[i] = splitmix64(&h)
	}
	// xoshiro must not be seeded with the all-zero state.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
	st.normCached = false
	st.normValue = 0
}

// Stream is a single xoshiro256** generator. It is not safe for concurrent
// use; give each goroutine (or each simulated entity) its own Stream.
type Stream struct {
	s [4]uint64
	// cached second normal variate from the polar method
	normCached bool
	normValue  float64
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform variate in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn with non-positive n=%d", n))
	}
	// Lemire's nearly-divisionless bounded generation, simplified: the
	// modulo bias for n << 2^64 is far below anything observable in a
	// simulation, but we keep the rejection loop for exactness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1), by
// inversion. Scale by 1/lambda for rate lambda.
func (r *Stream) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method (caching the paired variate).
func (r *Stream) NormFloat64() float64 {
	if r.normCached {
		r.normCached = false
		return r.normValue
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.normValue = v * f
		r.normCached = true
		return u * f
	}
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth multiplication; for large means a normal approximation with
// continuity correction, which is ample for traffic-load modelling.
func (r *Stream) Poisson(mean float64) int {
	if mean < 0 {
		panic(fmt.Sprintf("rng: Poisson with negative mean %v", mean))
	}
	if mean == 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := math.Floor(mean + math.Sqrt(mean)*r.NormFloat64() + 0.5)
	if v < 0 {
		return 0
	}
	return int(v)
}
