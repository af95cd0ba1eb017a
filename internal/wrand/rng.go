package wrand

import (
	"fmt"
	"math"
	"math/rand"
)

// Rand is the randomness interface the samplers consume. Both *rand.Rand
// and *RNG satisfy it, so tests can drive the data structures with any
// source while the engines use the serializable RNG below.
type Rand interface {
	Int63n(n int64) int64
	Intn(n int) int
}

// xoshiro is an xoshiro256** generator. Unlike math/rand's default source
// its full state is four exported words, which is what makes engine
// snapshots possible: a run can be frozen mid-flight and resumed with the
// scheduler's randomness continuing exactly where it left off.
type xoshiro struct {
	s [4]uint64
}

// splitmix64 is the state-seeding generator recommended for xoshiro: it
// guarantees a well-mixed non-zero state from any 64-bit seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Seed implements rand.Source.
func (x *xoshiro) Seed(seed int64) {
	sm := uint64(seed)
	for i := range x.s {
		x.s[i] = splitmix64(&sm)
	}
}

// Uint64 implements rand.Source64.
func (x *xoshiro) Uint64() uint64 {
	s := &x.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int63 implements rand.Source.
func (x *xoshiro) Int63() int64 { return int64(x.Uint64() >> 1) }

// RNGState is the exportable state of an RNG: the four xoshiro256** words.
// It is a plain value with exported fields so it round-trips through gob
// and JSON inside engine snapshots.
type RNGState struct {
	S0, S1, S2, S3 uint64
}

// zero reports the one invalid xoshiro state (the all-zero fixed point).
func (s RNGState) zero() bool { return s.S0|s.S1|s.S2|s.S3 == 0 }

// RNG is the scheduler PRNG of the simulation engines: math/rand's
// distribution methods (Intn, Int63n, Float64, ...) over an owned
// xoshiro256** source whose state can be exported with State and
// reinstalled with SetState.
//
// The methods the engines' step loops call (Int63, Int31, Int63n, Int31n,
// Intn, Float64) are defined below with math/rand's exact algorithms, so
// they draw the same values as the *rand.Rand they shadow without its
// rand.Source interface call per draw. The embedded *rand.Rand keeps the
// rest of the method set (ExpFloat64, Perm, ...) available over the same
// source; all of its state lives in the owned source (the engines never
// call Read, the one buffered method).
type RNG struct {
	*rand.Rand
	src *xoshiro
}

// Int63 returns a non-negative 63-bit integer, as rand.Rand.Int63.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Int31 returns a non-negative 31-bit integer, as rand.Rand.Int31.
func (r *RNG) Int31() int32 { return int32(r.src.Int63() >> 32) }

// Int63n returns an integer in [0, n), as rand.Rand.Int63n: a mask for a
// power of two, otherwise rejection above the largest multiple of n. It
// panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.src.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.src.Int63()
	for v > max {
		v = r.src.Int63()
	}
	return v % n
}

// Int31n returns an integer in [0, n), as rand.Rand.Int31n. It panics if
// n <= 0.
func (r *RNG) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns an integer in [0, n), as rand.Rand.Intn: Int31n when n
// fits in 31 bits, Int63n otherwise. It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a float in [0, 1), as rand.Rand.Float64.
func (r *RNG) Float64() float64 {
	for {
		if f := float64(r.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// GeometricRun draws the length of a run of failures before the first
// success of independent trials that each succeed with probability p,
// given as logq = math.Log1p(-p) so callers can cache it while p holds:
// floor(log(U)/logq) for U uniform on (0, 1], from one Float64 draw. A
// run of limit or more comes back as limit. Stopping a run there is
// exact: by memorylessness, what remains past the limit is geometric
// again and is drawn afresh. The urn and sim engines skip their
// ineffective steps through it.
func (r *RNG) GeometricRun(logq float64, limit int64) int64 {
	u := 1 - r.Float64()
	run := math.Floor(math.Log(u) / logq)
	if run >= float64(limit) {
		return limit
	}
	return int64(run)
}

// NewRNG returns a generator deterministically seeded from seed.
func NewRNG(seed int64) *RNG {
	src := &xoshiro{}
	src.Seed(seed)
	return &RNG{Rand: rand.New(src), src: src}
}

// State exports the generator's current state.
func (r *RNG) State() RNGState {
	return RNGState{S0: r.src.s[0], S1: r.src.s[1], S2: r.src.s[2], S3: r.src.s[3]}
}

// SetState reinstalls a previously exported state: the next draws continue
// the captured sequence exactly. The all-zero state is xoshiro's fixed
// point (it only ever emits more zeros) and is rejected — it cannot be
// produced by State on a seeded generator, so seeing one means the
// snapshot is corrupt.
func (r *RNG) SetState(s RNGState) error {
	if s.zero() {
		return fmt.Errorf("wrand: all-zero RNG state")
	}
	r.src.s = [4]uint64{s.S0, s.S1, s.S2, s.S3}
	return nil
}
