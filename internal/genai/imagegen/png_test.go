package imagegen_test

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"runtime"
	"testing"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/workload"
)

// meanPNGBytes is the mean PNG size of the 49 workload.LandscapePrompt
// images generated at size², each at its prompt's own seed.
func meanPNGBytes(t *testing.T, size int) float64 {
	t.Helper()
	m, err := genai.ImageModelByName(imagegen.SD3Medium)
	if err != nil {
		t.Fatal(err)
	}
	const prompts = 49
	total := 0
	for i := 0; i < prompts; i++ {
		res, err := m.Generate(genai.ImageRequest{
			Prompt: workload.LandscapePrompt(i), Width: size, Height: size, Class: device.ClassWorkstation})
		if err != nil {
			t.Fatal(err)
		}
		total += len(res.PNG)
	}
	return float64(total) / prompts
}

// TestGeneratedPNGBytes holds the bytes a generated image costs on the
// wire, the paper's quantity. Every generated shape a page serves must
// stay below what image/png's unfiltered level-6 encoding of the same
// image measured (`before`, the same mean), and the LoadPage shape and
// the default 224² are pinned both ways at ±1%, so a byte regression
// fails here rather than in an experiment's output.
func TestGeneratedPNGBytes(t *testing.T) {
	shapes := []struct {
		size   int
		before float64 // mean bytes with image/png
		pin    float64 // mean bytes now, 0 where unpinned
	}{
		{32, 994.6, 0},          // workload.AbusePage
		{64, 2838.1, 0},         // the telemetry experiment's page
		{128, 7017.7, 5380.1},   // workload.LoadPage, PhotoGallery's sources
		{224, 13889.7, 12342.8}, // the request default
		{240, 15107.8, 0},       // workload.WikimediaLandscape
		{256, 16599.2, 0},       // workload.TravelBlog, sww-convert's default
	}
	for _, s := range shapes {
		got := meanPNGBytes(t, s.size)
		if got >= s.before {
			t.Errorf("%d²: mean PNG %.1f B, want below image/png's %.1f B", s.size, got, s.before)
		}
		if s.pin != 0 && math.Abs(got-s.pin) > 0.01*s.pin {
			t.Errorf("%d²: mean PNG %.1f B, want %.1f B ± 1%%", s.size, got, s.pin)
		}
	}

	// Cold (a fresh scratch, the pool emptied by two collections) and
	// warm (a scratch another shape has used) encodes agree byte for
	// byte.
	m, _ := genai.ImageModelByName(imagegen.SD3Medium)
	gen := func(w, h int) image.Image {
		res, err := m.Generate(genai.ImageRequest{Prompt: "encoder pool check", Width: w, Height: h, Seed: 5, Class: device.ClassWorkstation})
		if err != nil {
			t.Fatal(err)
		}
		return res.Image
	}
	img, other := gen(128, 96), gen(200, 150)
	runtime.GC()
	runtime.GC()
	cold, err := imagegen.EncodePNG(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := imagegen.EncodePNG(other); err != nil {
			t.Fatal(err)
		}
		warm, err := imagegen.EncodePNG(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(warm, cold) {
			t.Fatalf("pass %d: a recycled scratch's encoding differs from a fresh one's", i)
		}
	}
}

// FuzzEncodeIndexed: any paletted image up to 64² — a sub-image with a
// non-zero origin and a stride wider than its rows, a palette of 1–256
// entries of any alpha — decodes from EncodePNG to its own colours, and
// to what image/png's encoding of it decodes to.
func FuzzEncodeIndexed(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int8(0), int8(0), uint8(0), []byte(nil))
	f.Add(uint8(63), uint8(63), uint8(255), int8(-5), int8(7), uint8(3), []byte("\x10\x20\x30\xff\x11\x21\x31\x80"))
	f.Add(uint8(16), uint8(9), uint8(1), int8(100), int8(-100), uint8(7), []byte{0, 0, 0, 0, 255, 255, 255, 0})
	f.Add(uint8(40), uint8(2), uint8(15), int8(1), int8(1), uint8(1), []byte("ordered ramp"))
	f.Fuzz(func(t *testing.T, w, h, entries uint8, x0, y0 int8, pad uint8, data []byte) {
		width, height := 1+int(w)%64, 1+int(h)%64
		at := func(i int) byte {
			if len(data) == 0 {
				return byte(i)
			}
			return data[i%len(data)]
		}
		pal := make(color.Palette, 1+int(entries))
		for i := range pal {
			pal[i] = color.NRGBA{R: at(4 * i), G: at(4*i + 1), B: at(4*i + 2), A: at(4*i + 3)}
		}
		// The image is a window of a wider, taller parent: its origin is
		// (x0+extra, y0+1) and its stride the parent's row.
		extra := int(pad) % 8
		minX, minY := int(x0), int(y0)
		parent := image.NewPaletted(image.Rect(minX, minY, minX+width+extra, minY+height+1), pal)
		for i := range parent.Pix {
			parent.Pix[i] = byte(int(at(4*len(pal)+i)) % len(pal))
		}
		img := parent.SubImage(image.Rect(minX+extra, minY+1, minX+extra+width, minY+1+height)).(*image.Paletted)

		enc, err := imagegen.EncodePNG(img)
		if err != nil {
			t.Fatal(err)
		}
		got, err := png.Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoding EncodePNG's output: %v", err)
		}
		var ref bytes.Buffer
		if err := png.Encode(&ref, img); err != nil {
			t.Fatal(err)
		}
		std, err := png.Decode(&ref)
		if err != nil {
			t.Fatal(err)
		}
		if b := got.Bounds(); b.Dx() != width || b.Dy() != height {
			t.Fatalf("decoded %v, want %d×%d", b, width, height)
		}
		for y := 0; y < height; y++ {
			for x := 0; x < width; x++ {
				want := color.NRGBAModel.Convert(img.At(img.Rect.Min.X+x, img.Rect.Min.Y+y))
				if c := color.NRGBAModel.Convert(got.At(x, y)); c != want {
					t.Fatalf("(%d,%d) = %v, input %v", x, y, c, want)
				}
				if c := color.NRGBAModel.Convert(std.At(x, y)); c != want {
					t.Fatalf("(%d,%d): image/png round trip %v, input %v", x, y, c, want)
				}
			}
		}
	})
}
