package imagegen

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"image"
	"image/color"
	"image/draw"
	"image/png"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/metrics"
)

// referenceSynthesize is the pre-fast-path kernel, kept verbatim as
// the golden reference: per-pixel lattice hashing, PixOffset
// addressing, fresh allocations, one RGBA quadruple per pixel. The
// production kernel's indexed image must decode to it byte for byte.
func referenceSynthesize(prompt string, w, h int, seed int64, targetAlign float64) (*image.RGBA, float64) {
	rng := rand.New(rand.NewPCG(uint64(seed), genai.SeedStream))
	e := metrics.EmbedText(prompt)
	ec := referenceCentered(e)
	ecNorm := norm(ec)
	var v []float64
	planted := 0.0
	if ecNorm < 1e-9 || targetAlign <= 0 {
		v = referenceRandomUnitZeroMean(rng, nil)
	} else {
		scale(ec, 1/ecNorm)
		a := targetAlign / ecNorm
		if a > 0.995 {
			a = 0.995
		}
		g := referenceRandomUnitZeroMean(rng, ec)
		v = make([]float64, len(ec))
		s := math.Sqrt(1 - a*a)
		for i := range v {
			v[i] = a*ec[i] + s*g[i]
		}
		planted = a * ecNorm
	}

	img := image.NewRGBA(image.Rect(0, 0, w, h))
	tex := referenceCellZeroMeanNoise(rng.Int64(), w, h)
	cr, cg, cb := tintOffsets(prompt)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cell := (y*grid/h)*grid + x*grid/w
			l := baseLuma + featAmp*v[cell] + tex[y*w+x]
			i := img.PixOffset(x, y)
			img.Pix[i+0] = clampByte(l + cr)
			img.Pix[i+1] = clampByte(l + cg)
			img.Pix[i+2] = clampByte(l + cb)
			img.Pix[i+3] = 255
		}
	}
	return img, planted
}

// referenceCentered and referenceRandomUnitZeroMean are the reference
// kernel's vector helpers, verbatim: fresh slices, where production
// keeps its vectors in arrays.
func referenceCentered(v []float64) []float64 {
	out := append([]float64(nil), v...)
	var mean float64
	for _, x := range out {
		mean += x
	}
	mean /= float64(len(out))
	for i := range out {
		out[i] -= mean
	}
	return out
}

func referenceRandomUnitZeroMean(rng *rand.Rand, excl []float64) []float64 {
	v := make([]float64, metrics.EmbedDim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	v = referenceCentered(v)
	if excl != nil {
		var dot float64
		for i := range v {
			dot += v[i] * excl[i]
		}
		for i := range v {
			v[i] -= dot * excl[i]
		}
	}
	n := norm(v)
	if n == 0 {
		v[0], v[1] = 0.7071, -0.7071
		return v
	}
	scale(v, 1/n)
	return v
}

// pooledSynthesize is one synthesis on a pooled scratch, as Generate
// runs it, with the image copied out of the scratch's plane before the
// scratch goes back.
func pooledSynthesize(prompt string, w, h int, seed int64, targetAlign float64) (*image.Paletted, float64, float64) {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	img, planted, measured := sc.synthesize(prompt, w, h, seed, targetAlign)
	out := *img
	out.Pix = bytes.Clone(img.Pix)
	return &out, planted, measured
}

// tintOffsets is the reference kernel's per-prompt chroma shift,
// verbatim; production splits it into tintOf and tintShift.
func tintOffsets(prompt string) (cr, cg, cb float64) {
	h := fnv.New32a()
	h.Write([]byte(prompt))
	theta := float64(h.Sum32()%360) / 360 * 2 * math.Pi
	cr = math.Round(38 * math.Cos(theta))
	cb = math.Round(38 * math.Cos(theta+2.094))
	cg = math.Round(-(0.299*cr + 0.114*cb) / 0.587)
	return cr, cg, cb
}

func referenceCellZeroMeanNoise(seed int64, w, h int) []float64 {
	out := make([]float64, w*h)
	for oct, conf := range []struct {
		freq float64
		amp  float64
	}{{6, 0.55}, {13, 0.3}, {29, 0.15}} {
		lattice := newLattice(seed + int64(oct)*7919)
		for y := 0; y < h; y++ {
			fy := float64(y) / float64(h) * conf.freq
			for x := 0; x < w; x++ {
				fx := float64(x) / float64(w) * conf.freq
				out[y*w+x] += conf.amp * texAmp * lattice.at(fx, fy)
			}
		}
	}
	sums := make([]float64, grid*grid)
	counts := make([]int, grid*grid)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cell := (y*grid/h)*grid + x*grid/w
			sums[cell] += out[y*w+x]
			counts[cell]++
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cell := (y*grid/h)*grid + x*grid/w
			out[y*w+x] -= sums[cell] / float64(counts[cell])
		}
	}
	return out
}

// toRGBA draws any image into the reference kernel's representation.
func toRGBA(img image.Image) *image.RGBA {
	out := image.NewRGBA(img.Bounds())
	draw.Draw(out, out.Rect, img, img.Bounds().Min, draw.Src)
	return out
}

func checkPixels(t *testing.T, what string, got, want *image.RGBA) {
	t.Helper()
	if got.Stride != want.Stride || got.Rect != want.Rect {
		t.Fatalf("%s: geometry mismatch: %v/%d vs %v/%d", what, got.Rect, got.Stride, want.Rect, want.Stride)
	}
	if !bytes.Equal(got.Pix, want.Pix) {
		for i := range got.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%s: first pixel byte mismatch at offset %d: got %d, want %d", what, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// synthCases are the shapes synthesis is checked at: sizes (including
// non-multiples of the feature grid), prompts (including the
// unconditioned empty prompt), seeds and alignments.
var synthCases = []struct {
	prompt string
	w, h   int
	seed   int64
	align  float64
}{
	{"a red sailboat at dawn", 224, 224, 12345, 0.55},
	{"a red sailboat at dawn", 256, 128, 12345, 0.55},
	{"mountain village under snow, oil painting", 300, 200, -987654321, 0.72},
	{"", 224, 224, 42, 0.55}, // unconditioned baseline
	{"tiny", 17, 11, 7, 0.3}, // smaller than the 8×8 grid in one axis
	{"the quick brown fox", 64, 64, 0, 0},
	{"large-scale check", 512, 512, 99, 0.6},
	// workload.LoadPage's shape: what every cold traditional fetch
	// generates.
	{"a sweeping alpine valley with a turquoise glacial lake, photographed at sunrise with soft mist in the lowlands, wide angle landscape photograph, high detail", 128, 128, 2024, 0.5},
	{"one pixel", 1, 1, 3, 0.5},
	// Cell shapes the interleaved cell sums must survive: empty cell
	// columns or rows (3 wide or tall), one-pixel cells (8×8), and
	// runs of uneven length in both axes (129×127).
	{"narrow column", 3, 200, 31, 0.5},
	{"narrow row", 200, 3, 32, 0.5},
	{"one pixel a cell", 8, 8, 33, 0.5},
	{"uneven runs", 129, 127, 34, 0.5},
}

// TestSynthMatchesReference: the indexed kernel decodes to exactly
// the reference's pixels at every synthCases shape, both straight out
// of synthesize and after the round trip a client sees, png.Decode of
// Generate's PNG.
func TestSynthMatchesReference(t *testing.T) {
	for _, tc := range synthCases {
		t.Run(fmt.Sprintf("%dx%d_seed%d", tc.w, tc.h, tc.seed), func(t *testing.T) {
			want, wantAlign := referenceSynthesize(tc.prompt, tc.w, tc.h, tc.seed, tc.align)
			got, gotAlign, measured := pooledSynthesize(tc.prompt, tc.w, tc.h, tc.seed, tc.align)
			if gotAlign != wantAlign {
				t.Errorf("planted alignment = %v, reference %v", gotAlign, wantAlign)
			}
			checkPixels(t, "synthesize", toRGBA(got), want)
			if wantMeasured := metrics.Cosine(metrics.EmbedText(tc.prompt), metrics.EmbedImage(want)); measured != wantMeasured {
				t.Errorf("measured alignment = %v, EmbedImage of the reference %v", measured, wantMeasured)
			}

			// The same case through the model: Generate picks the
			// alignment itself (and the seed, when the case's is 0).
			req := normalizeImageReq(genai.ImageRequest{
				Prompt: tc.prompt, Width: tc.w, Height: tc.h, Seed: tc.seed, Class: device.ClassWorkstation})
			res, err := sd3.Generate(req)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := png.Decode(bytes.NewReader(res.PNG))
			if err != nil {
				t.Fatal(err)
			}
			seed, target := sd3.seedAndTarget(newScratch(), req)
			want, wantAlign = referenceSynthesize(tc.prompt, tc.w, tc.h, seed, target)
			if res.Alignment != wantAlign {
				t.Errorf("Generate planted alignment = %v, reference %v", res.Alignment, wantAlign)
			}
			checkPixels(t, "png.Decode(Generate)", toRGBA(decoded), want)
		})
	}
}

// TestGenerateMatchesEncodePNG: Generate's PNG, whose rows synthesis
// filtered and counted before it knew the image's darkest index, is
// byte for byte encodeIndexed's of the finished image, at every
// synthCases shape.
func TestGenerateMatchesEncodePNG(t *testing.T) {
	for _, tc := range synthCases {
		t.Run(fmt.Sprintf("%dx%d_seed%d", tc.w, tc.h, tc.seed), func(t *testing.T) {
			req := normalizeImageReq(genai.ImageRequest{
				Prompt: tc.prompt, Width: tc.w, Height: tc.h, Seed: tc.seed, Class: device.ClassWorkstation})
			res, err := sd3.Generate(req)
			if err != nil {
				t.Fatal(err)
			}
			seed, target := sd3.seedAndTarget(newScratch(), req)
			img, _, _ := pooledSynthesize(tc.prompt, tc.w, tc.h, seed, target)
			if want := encodeIndexed(img); !bytes.Equal(res.PNG, want) {
				t.Fatalf("Generate's PNG (%d B) is not encodeIndexed's of the same image (%d B)", len(res.PNG), len(want))
			}
		})
	}
}

// TestTintPaletteConcurrentFirstUse: goroutines racing to be the first
// user of a tint all get the one finished table (run under -race; it
// sits ahead of TestTintPalettes, which fills every tint).
func TestTintPaletteConcurrentFirstUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tint := 0; tint < tints; tint += 7 {
				if pal := tintTable(tint).pal; len(pal) != 256 || pal[255] == nil {
					t.Errorf("tint %d: unfinished table of %d entries", tint, len(pal))
				}
			}
		}()
	}
	wg.Wait()
}

// TestTintPalettes: every entry of every tint's table is the colour
// the RGBA kernel wrote for that luminance, an opaque color.NRGBA
// (the type png's PLTE writer takes without boxing), and a prompt
// lands on the tint the reference's hash picks.
func TestTintPalettes(t *testing.T) {
	for tint := 0; tint < tints; tint++ {
		cr, cg, cb := tintShift(tint)
		pal := tintTable(tint).pal
		if len(pal) != 256 {
			t.Fatalf("tint %d: %d entries, want 256", tint, len(pal))
		}
		for k, c := range pal {
			l := float64(k)
			want := color.NRGBA{R: clampByte(l + cr), G: clampByte(l + cg), B: clampByte(l + cb), A: 255}
			if got, ok := c.(color.NRGBA); !ok || got != want {
				t.Fatalf("tint %d entry %d = %#v, want %#v", tint, k, c, want)
			}
		}
	}
	for _, prompt := range []string{"", "tiny", "a red sailboat at dawn"} {
		wr, wg, wb := tintOffsets(prompt)
		if cr, cg, cb := tintShift(tintOf(prompt)); cr != wr || cg != wg || cb != wb {
			t.Errorf("prompt %q: shift (%v,%v,%v), reference (%v,%v,%v)", prompt, cr, cg, cb, wr, wg, wb)
		}
	}
}

// TestSynthPaletteSharedAndTrimmed: images of one prompt slice the
// tint's one table rather than building a palette each, and carry
// exactly the entries between their darkest and brightest pixel.
func TestSynthPaletteSharedAndTrimmed(t *testing.T) {
	a, _, _ := pooledSynthesize("first prompt", 96, 96, 11, 0.5)
	b, _, _ := pooledSynthesize("first prompt", 64, 64, 22, 0.5)
	table := tintTable(tintOf("first prompt")).pal
	for _, img := range []*image.Paletted{a, b} {
		shared := false
		for k := range table {
			shared = shared || &img.Palette[0] == &table[k]
		}
		if !shared {
			t.Error("image built its own palette instead of slicing the tint's table")
		}
		if cap(img.Palette) != len(img.Palette) {
			t.Error("palette has spare capacity: an append would write into the shared table")
		}
		lo, hi := uint8(255), uint8(0)
		for _, k := range img.Pix {
			lo, hi = min(lo, k), max(hi, k)
		}
		if lo != 0 || int(hi) != len(img.Palette)-1 {
			t.Errorf("indices span [%d, %d] of a %d-entry palette", lo, hi, len(img.Palette))
		}
	}
}

// TestSynthPooledBuffersDoNotAlias: back-to-back generations recycle
// scratch buffers, the image plane among them. A second synthesis must
// not disturb what the first was copied into, repeated synthesis with
// the same inputs stays identical, and a scratch whose plane held a
// larger or differently shaped image writes the smaller one in place,
// with exactly the pixels and measure a fresh scratch gives it.
func TestSynthPooledBuffersDoNotAlias(t *testing.T) {
	a1, _, _ := pooledSynthesize("first prompt", 96, 96, 11, 0.5)
	snapshot := append([]byte(nil), a1.Pix...)
	pooledSynthesize("second prompt", 96, 96, 22, 0.5)
	if !bytes.Equal(a1.Pix, snapshot) {
		t.Fatal("second synthesis mutated the first image's pixels")
	}
	a2, _, _ := pooledSynthesize("first prompt", 96, 96, 11, 0.5)
	if !bytes.Equal(a1.Pix, a2.Pix) {
		t.Fatal("repeated synthesis with identical inputs diverged")
	}

	fresh, _, wantMeasured := newScratch().synthesize("small", 40, 30, 5, 0.5)
	sc := newScratch()
	big, _, _ := sc.synthesize("big", 120, 90, 6, 0.5)
	plane := &big.Pix[0]
	small, _, measured := sc.synthesize("small", 40, 30, 5, 0.5)
	if &small.Pix[0] != plane {
		t.Error("the smaller image did not reuse the scratch's plane")
	}
	if small.Stride != 40 || small.Rect != fresh.Rect || !bytes.Equal(small.Pix, fresh.Pix) || measured != wantMeasured {
		t.Errorf("recycled scratch: %v stride %d measured %v; fresh: %v stride %d measured %v (pixels equal: %v)",
			small.Rect, small.Stride, measured, fresh.Rect, fresh.Stride, wantMeasured, bytes.Equal(small.Pix, fresh.Pix))
	}
}

// BenchmarkSynthKernel measures the raw synthesis kernel per size. At
// 256², six runs interleaved with the kernel before its pooled scratch
// and once-per-lattice-row lerps (2-vCPU Xeon, -benchtime 2s) read
// 0.79–1.23 ms and 19 allocs/op before, 0.56–0.66 ms and 7 after: 25–48%
// faster in every pair.
func BenchmarkSynthKernel(b *testing.B) {
	for _, size := range []int{256, 512, 1024} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := scratches.Get().(*scratch)
				sc.synthesize("a red sailboat at dawn", size, size, 12345, 0.55)
				scratches.Put(sc)
			}
		})
	}
}
