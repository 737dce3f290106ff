//go:build !race

package imagegen

import (
	"testing"

	"sww/internal/device"
	"sww/internal/genai"
)

// TestGenerateAllocs pins a warm generation at the LoadPage shape
// (128²) and at the Table 1 shape (224²) to the 1 object it makes
// today at each, the PNG: the image's Paletted header and index plane
// are the synthesis scratch's, lent until the PNG is encoded (3 while
// the result carried the image, 5 while it came back as a pointer and
// the prompt embedding was a slice, 9 while the synthesis kept its four
// 64-float vectors on the heap, 23 before the synthesis scratch, 11 at
// 128² with image/png's encoder). So the plane cannot go back to being
// made per image, nor the palette to being built per image (a
// color.Palette of an image's ~100 luminances is one slice plus one
// boxed colour per entry), nor the synthesis vectors or the measured
// alignment's to slices, nor the synthesis or encode scratch to
// per-image buffers (the encoder's rows, histogram and code arrays are
// its scratch's) or a fresh 607-word random source. A GC emptying the pools mid-run costs a few objects once,
// which the mean over 50 runs rounds away. (The race detector's
// instrumentation allocates; hence the build tag.)
func TestGenerateAllocs(t *testing.T) {
	for _, size := range []int{128, 224} {
		req := genai.ImageRequest{Prompt: "a red sailboat at dawn", Width: size, Height: size, Class: device.ClassLaptop, Seed: 7}
		if _, err := sd3.Generate(req); err != nil { // fills the pools and the tint's palette
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sd3.Generate(req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("Generate %d×%d: %v allocs, want ≤ 1", size, size, allocs)
		}
	}
}
