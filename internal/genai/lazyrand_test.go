package genai

import (
	"math"
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand: a LazySource draws rand.NewSource's
// sequence for every seed class math/rand reduces differently (zero,
// negative, the modulus and its neighbours, the int64 extremes), across
// more than two full turns of the 607-word state, through every method
// a generator calls, and from the start again after a re-seed that
// comes while some state words are still unbuilt and after one that
// comes once all are built.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 0x5ee1, math.MinInt64, math.MaxInt64}
	const draws = 2*rngLen + 50
	for _, seed := range seeds {
		got, want := rand.New(NewLazySource(seed)), rand.New(rand.NewSource(seed))
		check := func(phase string, draws int) {
			t.Helper()
			for d := 0; d < draws; d++ {
				var g, w float64
				switch d % 5 {
				case 0:
					g, w = float64(got.Int63()), float64(want.Int63())
				case 1:
					g, w = float64(got.Uint64()), float64(want.Uint64())
				case 2:
					g, w = got.NormFloat64(), want.NormFloat64()
				case 3:
					g, w = got.Float64(), want.Float64()
				case 4:
					g, w = float64(got.Intn(1000+d)), float64(want.Intn(1000+d))
				}
				if g != w {
					t.Fatalf("seed %d, %s, draw %d: got %v, want %v", seed, phase, d, g, w)
				}
			}
		}
		check("first draws", 200)
		got.Seed(seed ^ 0x5ee1)
		want.Seed(seed ^ 0x5ee1)
		check("re-seeded mid-build", draws)
		got.Seed(seed)
		want.Seed(seed)
		check("re-seeded once built", draws)
	}
}
