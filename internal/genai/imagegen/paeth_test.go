package imagegen

import "testing"

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
