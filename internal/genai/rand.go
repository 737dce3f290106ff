package genai

import "math/rand/v2"

// SeedStream is the second PCG seed word of every generator the
// stand-in models draw from: seed s draws the stream of
// rand.NewPCG(uint64(s), SeedStream).
const SeedStream = 0x737777_67656e6169 // "swwgenai"

// A Rand is a generator a stand-in model reseeds per image or text.
// Its PCG is held by value, so reseeding allocates nothing. A Rand is
// not safe for concurrent use.
type Rand struct {
	*rand.Rand
	pcg rand.PCG
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.Rand = rand.New(&r.pcg)
	r.Seed(seed)
	return r
}

// Seed restarts r at seed's stream.
func (r *Rand) Seed(seed int64) { r.pcg.Seed(uint64(seed), SeedStream) }
