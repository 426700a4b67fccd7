package sim

import (
	"math"
	"math/bits"
	"strconv"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (SplitMix64 core) with support for named forks. Each protocol entity
// forks its own stream from the scenario seed, so adding a new consumer
// of randomness never perturbs the streams of existing entities — a
// requirement for reproducible cross-version experiment comparisons.
//
// RNG is not safe for concurrent use; the simulation kernel is
// single-threaded, so each run owns its generators.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// splitmix64 advances the state and returns the next 64-bit value.
func (r *RNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fork derives an independent generator from this one, keyed by name.
// Forking with the same name from generators in identical states yields
// identical children.
func (r *RNG) Fork(name string) *RNG {
	h := fnv1a(name)
	base := r.next()
	return &RNG{state: base ^ h ^ 0x6a09e667f3bcc909}
}

// ForkIndexed derives an independent generator keyed by name and index,
// convenient for per-subscriber streams.
func (r *RNG) ForkIndexed(name string, index int) *RNG {
	return r.Fork(name + "#" + strconv.Itoa(index))
}

// Uint64 returns a uniform 64-bit value.
func (r *RNG) Uint64() uint64 { return r.next() }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		//lint:ignore panicfree documented API contract matching math/rand.Intn
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.next()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// A non-positive mean returns zero.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// UniformInt returns a uniform int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) UniformInt(lo, hi int) int {
	if hi < lo {
		//lint:ignore panicfree documented API contract: inverted bounds are a caller logic error
		panic("sim: UniformInt with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Shuffled returns a random permutation of the integers [0, n).
func (r *RNG) Shuffled(n int) []int {
	return r.ShuffledInto(make([]int, n))
}

// ShuffledInto fills dst with a random permutation of the integers
// [0, len(dst)) and returns it. It draws exactly what Shuffled(len(dst))
// draws and yields the same permutation, but into caller memory, so a
// stack array keeps a per-codeword shuffle off the heap.
func (r *RNG) ShuffledInto(dst []int) []int {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// fnv1a hashes a string with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
