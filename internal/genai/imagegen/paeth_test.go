package imagegen

import (
	"math/rand"
	"slices"
	"testing"
)

// referencePaeth is the PNG specification's predictor, verbatim in
// form: p = a+b−c, then whichever of a, b, c is nearest p, ties going
// to a, then b.
func referencePaeth(a, b, c uint8) uint8 {
	p := int(a) + int(b) - int(c)
	pa, pb, pc := abs(p-int(a)), abs(p-int(b)), abs(p-int(c))
	if pa <= pb && pa <= pc {
		return a
	}
	if pb <= pc {
		return b
	}
	return c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestPaethPredictor: the branchless predictor agrees with the
// specification's over every (a, b, c) triple.
func TestPaethPredictor(t *testing.T) {
	for i := 0; i < 1<<24; i++ {
		a, b, c := uint8(i), uint8(i>>8), uint8(i>>16)
		if got, want := paeth(a, b, c), referencePaeth(a, b, c); got != want {
			t.Fatalf("paeth(%d, %d, %d) = %d, want %d", a, b, c, got, want)
		}
	}
}

// TestHuffmanLengths: huffBuilder's codes are complete (Kraft sum
// exactly 1, which inflaters require), no code exceeds its limit, only
// the symbols that occur get one, and a code the limit did not cut is
// as short as Huffman's (a lone symbol takes one bit and gives the
// other to a symbol that does not occur). Fibonacci-shaped counts, whose unlimited code
// is a symbol deeper per symbol, must be cut to 15 bits (literals) and
// 7 (the code-length code); random counts cover the rest.
func TestHuffmanLengths(t *testing.T) {
	var hb huffBuilder
	check := func(name string, freq []uint32, limit int) (maxLen int) {
		t.Helper()
		lens := make([]uint8, len(freq))
		hb.lengths(freq, lens, limit)
		kraft, cost, occur := 0, 0, 0
		for _, f := range freq {
			if f > 0 {
				occur++
			}
		}
		for s, f := range freq {
			l := int(lens[s])
			switch {
			case occur == 1 && f == 0 && l == 1:
				// the other half of a lone symbol's code
			case (f == 0) != (l == 0) || l > limit:
				t.Fatalf("%s: symbol %d counted %d has length %d (limit %d)", name, s, f, l, limit)
			}
			if l > 0 {
				kraft += 1 << (limit - l)
			}
			cost += int(f) * l
			maxLen = max(maxLen, l)
		}
		if kraft != 1<<limit {
			t.Fatalf("%s: Kraft sum %d/%d, want 1", name, kraft, 1<<limit)
		}
		if want := huffmanCost(freq); maxLen < limit && cost != want {
			t.Fatalf("%s: uncut code costs %d bits, Huffman's %d", name, cost, want)
		}
		return maxLen
	}
	for _, c := range []struct{ symbols, limit int }{{numLit, maxLitBits}, {19, maxCLBits}} {
		freq := make([]uint32, c.symbols)
		for s, a, b := 0, uint32(1), uint32(1); s < c.symbols; s, a, b = s+1, b, a+b {
			freq[s] = a
		}
		if got := check("fibonacci", freq, c.limit); got != c.limit {
			t.Errorf("fibonacci over %d symbols: longest code %d bits, want the limit %d", c.symbols, got, c.limit)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		symbols, limit := numLit, maxLitBits
		if i%2 == 1 {
			symbols, limit = 19, maxCLBits
		}
		freq := make([]uint32, symbols)
		used := 1 + rng.Intn(symbols)
		for range used {
			freq[rng.Intn(symbols)] = uint32(1 + rng.ExpFloat64()*float64(rng.Intn(5000)))
		}
		check("random", freq, limit)
	}
}

// huffmanCost is the bits an unlimited Huffman code for freq spends:
// the sum of the weights each merge makes.
func huffmanCost(freq []uint32) int {
	var w []int
	for _, f := range freq {
		if f > 0 {
			w = append(w, int(f))
		}
	}
	if len(w) == 1 {
		return w[0]
	}
	cost := 0
	for len(w) > 1 {
		slices.Sort(w)
		m := w[0] + w[1]
		cost += m
		w = append(w[2:], m)
	}
	return cost
}
