//go:build !race

package imagegen

import (
	"testing"

	"sww/internal/device"
	"sww/internal/genai"
)

// TestGenerateAllocs pins a warm generation at the LoadPage shape to
// the 9 objects it makes today (23 before the synthesis scratch, 11
// with image/png's encoder), so the palette cannot drift back to being
// built per image (a color.Palette of an image's ~100 luminances is one
// slice plus one boxed colour per entry), nor the synthesis or encode
// scratch back to per-image buffers, a fresh 607-word random source or
// a fresh deflate state. One spare object covers a GC emptying the
// pools mid-run. (The race detector's instrumentation allocates; hence
// the build tag.)
func TestGenerateAllocs(t *testing.T) {
	req := genai.ImageRequest{Prompt: "a red sailboat at dawn", Width: 128, Height: 128, Class: device.ClassLaptop, Seed: 7}
	if _, err := sd3.Generate(req); err != nil { // fills the pools and the tint's palette
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sd3.Generate(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("Generate 128×128: %v allocs, want ≤ 10", allocs)
	}
}
