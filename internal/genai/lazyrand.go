package genai

import "math/rand"

// math/rand's additive lagged-Fibonacci source: 607 state words, the
// second term 273 words back.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Park–Miller modulus that seeds the state
)

// A LazySource is a rand.Source64 that yields exactly the sequence of
// rand.NewSource(seed), but seeds in constant time. math/rand's source
// builds all 607 state words when seeded; a generation seeds a source
// per image or text and then draws fewer than 200 numbers from it. Here
// Seed only records the seed, and a state word is built the first time
// a draw reads it.
//
// Seeded word i is (x[21+3i]<<40) ^ (x[22+3i]<<20) ^ x[23+3i] ^
// cooked[i], where x[k] is the seed after k steps of the Park–Miller
// generator x ← 48271·x mod (2³¹−1), and cooked is math/rand's fixed
// table. The generator is multiplicative, so x[k] is the seed times
// powers[k], and a word costs three products, not a walk along x.
//
// A LazySource is not safe for concurrent use.
type LazySource struct {
	seed      uint64 // in [1, 2³¹−2], reduced as math/rand reduces it
	tap, feed int
	drawn     int // draws since Seed, counted up to rngLen-rngTap
	vec       [rngLen]uint64
}

var (
	// powers[i][j] is 48271^(21+3i+j) mod (2³¹−1): the steps from the
	// seed to the three values state word i is built from.
	powers [rngLen][3]uint64
	// cooked is math/rand's rngCooked, recovered at init (see there).
	cooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k < 21+3*rngLen; k++ {
		if k >= 21 {
			powers[(k-21)/3][(k-21)%3] = p
		}
		p = p * 48271 % int32max
	}

	// Recover the cooked constants from a stock source instead of
	// copying them. Its first 607 draws each overwrite one state word
	// with the draw, so the state after them is the draws themselves;
	// undoing the draws newest first (a draw added its tap word to its
	// feed word) gives the seeded state, and taking away the seed's
	// Park–Miller part leaves the constant.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var vec [rngLen]uint64
	feedAt := func(d int) int { return (rngLen - rngTap - 1 - d + rngLen) % rngLen }
	for d := 0; d < rngLen; d++ {
		vec[feedAt(d)] = src.Uint64()
	}
	for d := rngLen - 1; d >= 0; d-- {
		vec[feedAt(d)] -= vec[rngLen-1-d]
	}
	s := NewLazySource(seed)
	for i := range cooked { // cooked is all zero here, so word is the Park–Miller part
		cooked[i] = vec[i] ^ s.word(i)
	}
}

// NewLazySource returns a source seeded with seed.
func NewLazySource(seed int64) *LazySource {
	s := new(LazySource)
	s.Seed(seed)
	return s
}

// Seed makes s yield rand.NewSource(seed)'s sequence from its start.
func (s *LazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.drawn = 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *LazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *LazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	// Draw d after Seed reads feed word 333−d and tap word 606−d. The
	// first 334 draws read feed words no earlier draw touched, and the
	// first 273 such tap words; every later read finds a word an earlier
	// draw built or wrote.
	if s.drawn < rngLen-rngTap {
		s.vec[s.feed] = s.word(s.feed)
		if s.drawn < rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// word is state word i as Seed(s.seed) leaves it.
func (s *LazySource) word(i int) uint64 {
	p := &powers[i]
	return s.seed*p[0]%int32max<<40 ^ s.seed*p[1]%int32max<<20 ^ s.seed*p[2]%int32max ^ cooked[i]
}
