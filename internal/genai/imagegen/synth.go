// Package imagegen implements the text-to-image models of the SWW
// prototype as calibrated procedural generators.
//
// A generated image is a tinted multi-octave value-noise texture
// whose 8×8 grid-cell luminance means encode a feature vector v. The
// vector is a controlled mixture of the prompt's text embedding and
// seeded noise: the mixing angle is the model's *fidelity*, the
// calibration knob that maps directly onto the CLIP score the paper
// measures (see internal/metrics). Higher-quality models plant the
// prompt features more faithfully, exactly as higher-quality
// diffusion models adhere to prompts more closely.
package imagegen

import (
	"hash/fnv"
	"image"
	"image/color"
	"math"
	"math/rand"
	"sync"

	"sww/internal/metrics"
)

const (
	grid = 8 // feature grid, must match metrics.EmbedDim = grid²

	baseLuma = 130 // mid-gray the features modulate around
	featAmp  = 72  // luminance amplitude of planted features
	texAmp   = 22  // amplitude of the in-cell texture
)

// A scratch is one synthesis's working memory. A busy server
// synthesizes thousands of images, and the w·h texture plane is the
// dominant transient allocation, so scratches are recycled whole, with
// the generator the synthesis draws from.
type scratch struct {
	rng   *rand.Rand // re-seeded per use: the sequence rand.New(rand.NewSource(seed)) draws
	tex   []float64  // w·h texture plane
	table []float64  // one octave's lattice values
	fades []float64  // per column: faded in-lattice fraction
	cols  []int      // per column: lattice index, then feature cell
	row0  []float64  // per column: the horizontal lerp along lattice row iy,
	row1  []float64  // and along iy+1
}

var scratches = sync.Pool{New: func() any { return &scratch{rng: rand.New(rand.NewSource(1))} }}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// synthesize renders a w×h image that encodes a feature vector with
// the given target prompt alignment. It returns the image, the
// alignment actually planted, and the prompt's text embedding (so
// callers verifying §7 alignment need not re-embed the prompt).
//
// The kernel computes one luminance per pixel and the prompt's tint
// only shifts it per channel, so the image is indexed: a pixel stores
// its rounded luminance (less the image's darkest) and tintPalette
// maps that to the colour.
// Luminance stays inside [14, 246] — baseLuma ± featAmp·|v[c]| with v
// a unit vector is [58, 202], the octave amplitudes sum to texAmp and
// removing a cell mean can at most double that, ±44 — so the index
// never clamps, and rounding before the integral chroma shift gives
// the colours that rounding after it did (DESIGN.md "Indexed images"
// has the one-ulp caveat).
//
// Every floating-point expression below is associated exactly as in
// the straightforward per-pixel formulation (Go's + and * are
// left-associative), so hoisting per-cell and per-column terms into
// tables keeps the output byte-for-byte identical.
func synthesize(prompt string, w, h int, seed int64, targetAlign float64) (*image.Paletted, float64, []float64) {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	rng := sc.rng
	rng.Seed(seed)

	// Build the planted vector in the zero-mean subspace that
	// metrics.EmbedImage measures.
	e := metrics.EmbedText(prompt)
	ec := centered(e)
	ecNorm := norm(ec)
	var v []float64
	planted := 0.0
	if ecNorm < 1e-9 || targetAlign <= 0 {
		// Unconditioned image (the paper's random baseline).
		v = randomUnitZeroMean(rng, nil)
	} else {
		scale(ec, 1/ecNorm)
		// Measured cosine is against the *uncentered* text embedding,
		// so compensate for the centering loss.
		a := targetAlign / ecNorm
		if a > 0.995 {
			a = 0.995
		}
		g := randomUnitZeroMean(rng, ec)
		v = make([]float64, len(ec))
		s := math.Sqrt(1 - a*a)
		for i := range v {
			v[i] = a*ec[i] + s*g[i]
		}
		planted = a * ecNorm
	}

	img := image.NewPaletted(image.Rect(0, 0, w, h), nil)
	tex := sc.cellZeroMeanNoise(rng.Int63(), w, h)

	// baseLuma + featAmp*v[cell] + tex[i] associates as
	// (baseLuma + featAmp*v[cell]) + tex[i], so the first addition can
	// be folded into a per-cell table. The x→cell map likewise depends
	// only on the column; the noise pass left it in sc.cols.
	var cellBase [grid * grid]float64
	for c := range cellBase {
		cellBase[c] = baseLuma + featAmp*v[c]
	}
	xCell := sc.cols
	lo, hi := uint8(255), uint8(0)
	for y := 0; y < h; y++ {
		rowCell := (y * grid / h) * grid
		row := img.Pix[y*img.Stride:]
		trow := tex[y*w:]
		for x := 0; x < w; x++ {
			k := clampByte(cellBase[rowCell+xCell[x]] + trow[x])
			row[x] = k
			lo = min(lo, k)
			hi = max(hi, k)
		}
	}
	// PLTE is stored uncompressed, three bytes an entry, so carry only
	// the luminances between the darkest and brightest pixel (~100 of
	// the 256 for a 128² image) and index from the darkest.
	for i := range img.Pix {
		img.Pix[i] -= lo
	}
	// Capped at its length: an append by a consumer reallocates instead
	// of landing in the shared table's next entries.
	img.Palette = tintPalette(tintOf(prompt))[lo : int(hi)+1 : int(hi)+1]
	return img, planted, e
}

// octaves is the value-noise spectrum of the synthesized texture.
var octaves = [...]struct {
	freq float64
	amp  float64
}{{6, 0.55}, {13, 0.3}, {29, 0.15}}

// cellZeroMeanNoise renders multi-octave value noise and removes each
// feature cell's mean so texture cannot disturb the planted features.
// The returned plane is sc.tex, and sc.cols is left holding each
// column's feature cell.
//
// Per octave the lattice is sampled on at most ⌈freq⌉+1 integer
// coordinates per axis, so all lattice values are precomputed into a
// small table once per image — the naive formulation re-hashed four
// lattice corners per pixel per octave. Column geometry (lattice index,
// faded in-cell fraction) depends only on x, and the two horizontal
// lerps only on x and the lattice row, so they are computed once per
// column and once per lattice row rather than per pixel. All
// arithmetic matches the naive expression's association, keeping the
// texture bit-identical.
func (sc *scratch) cellZeroMeanNoise(seed int64, w, h int) []float64 {
	sc.tex = resize(sc.tex, w*h)
	sc.cols = resize(sc.cols, w)
	sc.fades = resize(sc.fades, w)
	sc.row0 = resize(sc.row0, w)
	sc.row1 = resize(sc.row1, w)
	out, ixs, txs, row0, row1 := sc.tex, sc.cols, sc.fades, sc.row0, sc.row1
	clear(out)
	for oct, conf := range octaves {
		n := int(conf.freq) + 2 // ix < freq, plus the ix+1 corner
		sc.table = resize(sc.table, n*n)
		table := sc.table
		newLattice(seed+int64(oct)*7919).fill(table, n)
		amp := conf.amp * texAmp
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w) * conf.freq
			ix := int(math.Floor(fx))
			ixs[x] = ix
			txs[x] = fade(fx - float64(ix))
		}
		rowIY := -1
		for y := 0; y < h; y++ {
			fy := float64(y) / float64(h) * conf.freq
			iy := int(math.Floor(fy))
			ty := fade(fy - float64(iy))
			if iy != rowIY {
				r0 := table[iy*n:]
				r1 := table[(iy+1)*n:]
				for x := 0; x < w; x++ {
					ix, tx := ixs[x], txs[x]
					row0[x] = lerp(r0[ix], r0[ix+1], tx)
					row1[x] = lerp(r1[ix], r1[ix+1], tx)
				}
				rowIY = iy
			}
			o := out[y*w:]
			for x := 0; x < w; x++ {
				o[x] += amp * lerp(row0[x], row1[x], ty)
			}
		}
	}

	// Remove per-cell means. Counting and summing walk pixels in the
	// original order; the per-cell quotient is hoisted (same single
	// division, applied per pixel as before).
	var sums [grid * grid]float64
	var counts [grid * grid]int
	xCell := ixs // reuse: same width
	for x := 0; x < w; x++ {
		xCell[x] = x * grid / w
	}
	for y := 0; y < h; y++ {
		rowCell := (y * grid / h) * grid
		o := out[y*w:]
		for x := 0; x < w; x++ {
			c := rowCell + xCell[x]
			sums[c] += o[x]
			counts[c]++
		}
	}
	var means [grid * grid]float64
	for c := range means {
		if counts[c] > 0 {
			means[c] = sums[c] / float64(counts[c])
		}
	}
	for y := 0; y < h; y++ {
		rowCell := (y * grid / h) * grid
		o := out[y*w:]
		for x := 0; x < w; x++ {
			o[x] -= means[rowCell+xCell[x]]
		}
	}
	return out
}

// lattice is seeded 2-D value noise with bilinear interpolation.
type lattice struct{ seed int64 }

func newLattice(seed int64) lattice { return lattice{seed} }

// value hashes the seed, ix and iy (each eight little-endian bytes)
// with FNV-1a and maps the hash into [-1, 1].
func (l lattice) value(ix, iy int) float64 {
	h := fnv.New64a()
	var b [24]byte
	putInt64(b[0:], l.seed)
	putInt64(b[8:], int64(ix))
	putInt64(b[16:], int64(iy))
	h.Write(b[:])
	return unit(h.Sum64())
}

func unit(hash uint64) float64 { return float64(hash%2048)/1023.5 - 1 }

// fill writes the n×n lattice values at integer coordinates [0,n)² into
// t, row-major. It is value's hash, with the FNV-1a state after the
// seed and after ix each computed once instead of once per entry.
func (l lattice) fill(t []float64, n int) {
	seeded := fnvInt64(fnvOffset, l.seed)
	for ix := 0; ix < n; ix++ {
		col := fnvInt64(seeded, int64(ix))
		for iy := 0; iy < n; iy++ {
			t[iy*n+ix] = unit(fnvInt64(col, int64(iy)))
		}
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvInt64 continues FNV-1a state h over v's eight little-endian bytes.
func fnvInt64(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

func (l lattice) at(x, y float64) float64 {
	ix, iy := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(ix), y-float64(iy)
	fx, fy = fade(fx), fade(fy)
	v00 := l.value(ix, iy)
	v10 := l.value(ix+1, iy)
	v01 := l.value(ix, iy+1)
	v11 := l.value(ix+1, iy+1)
	return lerp(lerp(v00, v10, fx), lerp(v01, v11, fx), fy)
}

func fade(t float64) float64       { return t * t * (3 - 2*t) }
func lerp(a, b, t float64) float64 { return a + (b-a)*t }

func putInt64(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// tints is the number of distinct chroma shifts: the prompt hash
// picks a whole degree of hue.
const tints = 360

// tintOf picks the prompt's tint, so different prompts render in
// different palettes.
func tintOf(prompt string) int {
	h := fnv.New32a()
	h.Write([]byte(prompt))
	return int(h.Sum32() % tints)
}

// tintShift is tint t's luminance-neutral chroma shift. The Rec.601
// combination of the offsets is ~0, so planted features survive the
// tint exactly.
func tintShift(t int) (cr, cg, cb float64) {
	theta := float64(t) / tints * 2 * math.Pi
	cr = math.Round(38 * math.Cos(theta))
	cb = math.Round(38 * math.Cos(theta+2.094))
	cg = math.Round(-(0.299*cr + 0.114*cb) / 0.587)
	return cr, cg, cb
}

// tintPalettes holds each tint's palette, built by the first image
// that needs it and shared by every later one.
var tintPalettes [tints]struct {
	once sync.Once
	pal  color.Palette
}

// tintPalette maps luminance k to tint t's colour for it. Entries are
// color.NRGBA because that is what png's PLTE writer converts every
// entry to: any other type is boxed once per entry per encode.
func tintPalette(t int) color.Palette {
	e := &tintPalettes[t]
	e.once.Do(func() {
		cr, cg, cb := tintShift(t)
		e.pal = make(color.Palette, 256)
		for k := range e.pal {
			l := float64(k)
			e.pal[k] = color.NRGBA{R: clampByte(l + cr), G: clampByte(l + cg), B: clampByte(l + cb), A: 255}
		}
	})
	return e.pal
}

func clampByte(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func centered(v []float64) []float64 {
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

func norm(v []float64) float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	return math.Sqrt(n)
}

func scale(v []float64, k float64) {
	for i := range v {
		v[i] *= k
	}
}

// randomUnitZeroMean draws a unit vector in the zero-mean subspace,
// orthogonal to excl when excl is non-nil (and unit, zero-mean).
func randomUnitZeroMean(rng *rand.Rand, excl []float64) []float64 {
	v := make([]float64, metrics.EmbedDim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	v = centered(v)
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
