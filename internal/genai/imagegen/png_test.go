package imagegen_test

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"runtime"
	"testing"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/genai/imagegen"
	"sww/internal/workload"
)

// landscapePNGs generates the 49 workload.LandscapePrompt images at
// size², each at its prompt's own seed, and returns their PNGs.
func landscapePNGs(tb testing.TB, size int) [][]byte {
	tb.Helper()
	m, err := genai.ImageModelByName(imagegen.SD3Medium)
	if err != nil {
		tb.Fatal(err)
	}
	pngs := make([][]byte, 49)
	for i := range pngs {
		res, err := m.Generate(genai.ImageRequest{
			Prompt: workload.LandscapePrompt(i), Width: size, Height: size, Class: device.ClassWorkstation})
		if err != nil {
			tb.Fatal(err)
		}
		pngs[i] = res.PNG
	}
	return pngs
}

// idatOf returns the data of a PNG's IDAT chunks, concatenated.
func idatOf(b []byte) []byte {
	var idat []byte
	for b = b[8:]; len(b) >= 12; { // past the signature: length, type, data, CRC
		n := binary.BigEndian.Uint32(b)
		if string(b[4:8]) == "IDAT" {
			idat = append(idat, b[8:8+n]...)
		}
		b = b[12+n:]
	}
	return idat
}

// inflate is compress/zlib's reading of a zlib stream.
func inflate(t *testing.T, z []byte) []byte {
	t.Helper()
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// filterTypes inflates a PNG's IDAT stream and returns each row's
// filter byte, for an 8-bit single-channel image of width w.
func filterTypes(t *testing.T, b []byte, w int) []byte {
	t.Helper()
	raw := inflate(t, idatOf(b))
	if len(raw)%(1+w) != 0 {
		t.Fatalf("inflated IDAT is %d B, not whole rows of %d", len(raw), 1+w)
	}
	var filters []byte
	for ; len(raw) > 0; raw = raw[1+w:] {
		filters = append(filters, raw[0])
	}
	return filters
}

// paethRows is the PNG specification's Paeth filter over img's
// indices, in the specification's form: every row led by filter byte
// 4, a neighbour outside the image 0, and p = a+b−c predicted by
// whichever of a, b, c is nearest, ties going to a, then b.
func paethRows(img *image.Paletted) []byte {
	at := func(x, y int) int {
		if x < 0 || y < 0 {
			return 0
		}
		return int(img.Pix[y*img.Stride+x])
	}
	abs := func(v int) int { return max(v, -v) }
	var rows []byte
	for y := range img.Rect.Dy() {
		rows = append(rows, 4)
		for x := range img.Rect.Dx() {
			a, b, c := at(x-1, y), at(x, y-1), at(x-1, y-1)
			p := a + b - c
			pred := c
			if pa, pb, pc := abs(p-a), abs(p-b), abs(p-c); pa <= pb && pa <= pc {
				pred = a
			} else if pb <= pc {
				pred = b
			}
			rows = append(rows, byte(at(x, y)-pred))
		}
	}
	return rows
}

// checkRows requires that enc's IDAT inflate, through compress/zlib,
// to exactly the specification's Paeth rows of img.
func checkRows(t *testing.T, enc []byte, img *image.Paletted) {
	t.Helper()
	got, want := inflate(t, idatOf(enc)), paethRows(img)
	if !bytes.Equal(got, want) {
		t.Fatalf("IDAT inflates to %d B that are not the %d B of the image's Paeth rows", len(got), len(want))
	}
}

// TestGeneratedPNGBytes holds the bytes a generated image costs on the
// wire, the paper's quantity. Every generated shape listed must
// stay below what Up-filtered rows deflated at BestSpeed measured
// (`before`, the same mean), and the LoadPage shape and the default
// 224² are pinned both ways at ±1%, so a byte regression fails here
// rather than in an experiment's output. Every row is Paeth-filtered.
func TestGeneratedPNGBytes(t *testing.T) {
	shapes := []struct {
		size   int
		before float64 // mean bytes with Up rows at BestSpeed
		pin    float64 // mean bytes now, 0 where unpinned
	}{
		{32, 911.1, 0},         // the smallest thumbnail shape
		{64, 2188.2, 0},        // the telemetry experiment's page
		{128, 5380.1, 3921.1},  // workload.LoadPage, PhotoGallery's sources
		{224, 12342.8, 9446.3}, // the request default
		{240, 13754.6, 0},      // workload.WikimediaLandscape
		{256, 15308.3, 0},      // workload.TravelBlog, sww-convert's default
		{512, 44224.5, 0},      // Table 2's medium image
	}
	for _, s := range shapes {
		pngs := landscapePNGs(t, s.size)
		total := 0
		for _, b := range pngs {
			total += len(b)
		}
		got := float64(total) / float64(len(pngs))
		if got >= s.before {
			t.Errorf("%d²: mean PNG %.1f B, want below Up/BestSpeed's %.1f B", s.size, got, s.before)
		}
		if s.pin != 0 && math.Abs(got-s.pin) > 0.01*s.pin {
			t.Errorf("%d²: mean PNG %.1f B, want %.1f B ± 1%%", s.size, got, s.pin)
		}
		filters := filterTypes(t, pngs[0], s.size)
		if len(filters) != s.size {
			t.Errorf("%d²: %d rows in the IDAT", s.size, len(filters))
		}
		for y, f := range filters {
			if f != 4 {
				t.Errorf("%d²: row %d has filter %d, want 4 (Paeth)", s.size, y, f)
				break
			}
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
		img, err := png.Decode(bytes.NewReader(res.PNG))
		if err != nil {
			t.Fatal(err)
		}
		return img
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

// TestEncodeIndexedLengthLimit: images whose Huffman codes sit at the
// edges of the block writer's code builder decode, through
// compress/zlib to their Paeth rows and through image/png to their
// pixels. One row's residuals are Fibonacci-shaped — 22 symbols
// counted 1, 1, 2, 3, 5, … — so an unlimited Huffman code for them is
// 21 bits deep (23 with the row's filter byte and end of block) and
// must be cut to deflate's 15; a 1×1 image has two symbols, its filter
// byte and end of block (its one residual is 4 too).
func TestEncodeIndexedLengthLimit(t *testing.T) {
	gray := make(color.Palette, 256)
	for i := range gray {
		gray[i] = color.NRGBA{R: uint8(i), G: uint8(i), B: uint8(i), A: 0xff}
	}
	var fib []byte // a row's residuals: symbol 10+3k, Fibonacci(k+1) times
	for k, a, b := 0, 1, 1; k < 22; k, a, b = k+1, b, a+b {
		fib = append(fib, bytes.Repeat([]byte{byte(10 + 3*k)}, a)...)
	}
	fibRow := image.NewPaletted(image.Rect(0, 0, len(fib), 1), gray)
	var sum byte
	for x, r := range fib { // a row's first pixel is its residual, each next its left neighbour plus its own
		sum += r
		fibRow.Pix[x] = sum
	}
	one := image.NewPaletted(image.Rect(0, 0, 1, 1), gray)
	one.Pix[0] = 4

	for _, c := range []struct {
		name string
		img  *image.Paletted
	}{{"fibonacci", fibRow}, {"1x1", one}} {
		t.Run(c.name, func(t *testing.T) {
			enc, err := imagegen.EncodePNG(c.img)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, enc, c.img)
			got, err := png.Decode(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			for x := range c.img.Rect.Dx() {
				if g, w := color.NRGBAModel.Convert(got.At(x, 0)), c.img.At(x, 0); g != w {
					t.Fatalf("pixel %d decodes to %v, want %v", x, g, w)
				}
			}
		})
	}
}

// TestIDATMatchesZlib: the block writer's IDAT is as small as
// compress/zlib's at HuffmanOnly over the same rows, within 0.5%, on
// the mean of the 49 landscape images at the LoadPage shape and at the
// request default. (compress/zlib also ends its stream with an empty
// stored block, 5 bytes the one final block does not spend.)
func TestIDATMatchesZlib(t *testing.T) {
	for _, size := range []int{128, 224} {
		ours, theirs := 0, 0
		for _, p := range landscapePNGs(t, size) {
			idat := idatOf(p)
			var z bytes.Buffer
			zw, err := zlib.NewWriterLevel(&z, zlib.HuffmanOnly)
			if err != nil {
				t.Fatal(err)
			}
			zw.Write(inflate(t, idat))
			zw.Close()
			ours += len(idat)
			theirs += z.Len()
		}
		ratio := float64(ours) / float64(theirs)
		t.Logf("%d²: mean IDAT %.1f B, compress/zlib's %.1f B (%+.2f%%)", size, float64(ours)/49, float64(theirs)/49, 100*(ratio-1))
		if math.Abs(ratio-1) > 0.005 {
			t.Errorf("%d²: mean IDAT %.1f B, compress/zlib's at HuffmanOnly %.1f B: more than 0.5%% apart", size, float64(ours)/49, float64(theirs)/49)
		}
	}
}

// BenchmarkDecodeGenerated128 is the decoder's side of encodeIndexed's
// trade, beside BenchmarkGenerate128: png.Decode of the 49 LoadPage-
// shaped landscape PNGs, one per op. Paeth rows under Huffman-only
// deflate cost image/png more to decode than Up rows at BestSpeed did.
func BenchmarkDecodeGenerated128(b *testing.B) {
	pngs := landscapePNGs(b, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := png.Decode(bytes.NewReader(pngs[i%len(pngs)])); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzEncodeIndexed: any paletted image up to 64² — a sub-image with a
// non-zero origin and a stride wider than its rows, a palette of 1–256
// entries of any alpha — decodes from EncodePNG to its own colours, and
// to what image/png's encoding of it decodes to; and its IDAT inflates,
// through compress/zlib, to exactly the specification's Paeth rows.
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
		checkRows(t, enc, img)
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

// BenchmarkEncodePNG128 is encodeIndexed alone at the LoadPage shape:
// EncodePNG of the 49 landscape images, decoded back to their planes
// and their palettes to the color.NRGBA entries a generated palette
// holds, one per op.
func BenchmarkEncodePNG128(b *testing.B) {
	var imgs []image.Image
	for _, p := range landscapePNGs(b, 128) {
		img, err := png.Decode(bytes.NewReader(p))
		if err != nil {
			b.Fatal(err)
		}
		pal := img.(*image.Paletted).Palette
		for i, c := range pal {
			pal[i] = color.NRGBAModel.Convert(c)
		}
		imgs = append(imgs, img)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := imagegen.EncodePNG(imgs[i%len(imgs)]); err != nil {
			b.Fatal(err)
		}
	}
}
