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

	"sww/internal/genai"
	"sww/internal/metrics"
)

const (
	grid = 8 // feature grid, must match metrics.EmbedDim = grid²

	baseLuma = 130 // mid-gray the features modulate around
	featAmp  = 72  // luminance amplitude of planted features
	texAmp   = 22  // amplitude of the in-cell texture
)

// A scratch is one image's working memory. A busy server synthesizes
// thousands of images, and the w·h texture plane is the dominant
// transient allocation, so scratches are recycled whole, with the
// generator the image draws from.
type scratch struct {
	rng   *rand.Rand // re-seeded per use: the sequence rand.New(rand.NewSource(seed)) draws
	tex   []float64  // w·h texture plane, before the cell means are removed
	oct   [len(octaves)]octaveRows
	cells cellStats
}

// octaveRows is one octave's lattice and the per-column state the
// texture pass reads it through.
type octaveRows struct {
	table []float64 // n×n lattice values
	n     int
	cols  []int     // per column: lattice index
	fades []float64 // per column: faded in-lattice fraction
	iy    int       // the lattice row row0 and row1 were built for
	row0  []float64 // per column: the horizontal lerp along lattice row iy,
	row1  []float64 // and along iy+1
}

// cellStats is what the texture pass learns about each feature cell.
type cellStats struct {
	n        [grid * grid]int
	mean     [grid * grid]float64
	min, max [grid * grid]float64 // the cell's least and greatest texture value
}

var scratches = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch { return &scratch{rng: rand.New(genai.NewLazySource(1))} }

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// synthesize renders, on sc, a w×h image that encodes a feature vector
// with the given target prompt alignment. It returns the image, the
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
func (sc *scratch) synthesize(prompt string, w, h int, seed int64, targetAlign float64) (*image.Paletted, float64, []float64) {
	rng := sc.rng
	rng.Seed(seed)

	// Build the planted vector in the zero-mean subspace that
	// metrics.EmbedImage measures.
	e := metrics.EmbedText(prompt)
	ec := centered(e)
	ecNorm := norm(ec[:])
	var v embedding
	planted := 0.0
	if ecNorm < 1e-9 || targetAlign <= 0 {
		// Unconditioned image (the paper's random baseline).
		v = randomUnitZeroMean(rng, nil)
	} else {
		scale(ec[:], 1/ecNorm)
		// Measured cosine is against the *uncentered* text embedding,
		// so compensate for the centering loss.
		a := targetAlign / ecNorm
		if a > 0.995 {
			a = 0.995
		}
		g := randomUnitZeroMean(rng, &ec)
		s := math.Sqrt(1 - a*a)
		for i := range v {
			v[i] = a*ec[i] + s*g[i]
		}
		planted = a * ecNorm
	}

	img := image.NewPaletted(image.Rect(0, 0, w, h), nil)
	tex := sc.texture(rng.Int63(), w, h)
	cs := &sc.cells

	// baseLuma + featAmp*v[cell] + (tex[i] - mean[cell]) associates as
	// (baseLuma + featAmp*v[cell]) + (tex[i] - mean[cell]), so the first
	// addition can be folded into a per-cell table.
	var cellBase [grid * grid]float64
	for c := range cellBase {
		cellBase[c] = baseLuma + featAmp*v[c]
	}
	// PLTE is stored uncompressed, three bytes an entry, so carry only
	// the luminances between the darkest and brightest pixel (~100 of
	// the 256 for a 128² image) and index from the darkest. Float + and
	// − round monotonically and clampByte is monotone, so a cell's
	// darkest pixel is its least texture value's and its brightest its
	// greatest's: the extremes come from the cells, not another pass.
	lo, hi := uint8(255), uint8(0)
	for c, n := range cs.n {
		if n > 0 {
			lo = min(lo, clampByte(cellBase[c]+(cs.min[c]-cs.mean[c])))
			hi = max(hi, clampByte(cellBase[c]+(cs.max[c]-cs.mean[c])))
		}
	}
	runs := cellRuns(w)
	for y := 0; y < h; y++ {
		rowCell := (y * grid / h) * grid
		row := img.Pix[y*img.Stride:][:w]
		trow := tex[y*w:][:w]
		for cx := 0; cx < grid; cx++ {
			base, mean := cellBase[rowCell+cx], cs.mean[rowCell+cx]
			for x := runs[cx]; x < runs[cx+1]; x++ {
				row[x] = clampByte(base+(trow[x]-mean)) - lo
			}
		}
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

// cellRuns returns where each feature-cell column starts in a w-wide
// row, and w at the end: column x is in cell column x*grid/w, the cx
// whose run [runs[cx], runs[cx+1]) holds it. A run is empty when w <
// grid leaves its cell column without pixels.
func cellRuns(w int) (runs [grid + 1]int) {
	for cx := range runs {
		runs[cx] = (cx*w + grid - 1) / grid // the least x with x*grid >= cx*w
	}
	return runs
}

// texture renders multi-octave value noise into sc.tex in one pass
// and leaves in sc.cells each feature cell's pixel count, mean, and
// least and greatest value. Subtracting the mean, which keeps texture
// from disturbing the planted features, is left to the quantizing pass.
//
// Per octave the lattice is sampled on at most ⌈freq⌉+1 integer
// coordinates per axis, so all lattice values are precomputed into a
// small table once per image — the naive formulation re-hashed four
// lattice corners per pixel per octave. Column geometry (lattice index,
// faded in-cell fraction) depends only on x, and each octave's two
// horizontal lerps only on x and its lattice row, so they are computed
// once per column and once per lattice row rather than per pixel. A
// pixel sums its octaves from zero in octave order, as the naive
// kernel's per-octave += over a zeroed plane does, and a cell's pixels
// are summed in row-major order, so texture and means are bit-identical
// to the naive expression's. The pixel loop is written out for the
// three octaves.
func (sc *scratch) texture(seed int64, w, h int) []float64 {
	sc.tex = resize(sc.tex, w*h)
	var amp, ty [len(octaves)]float64
	for i, conf := range octaves {
		o := &sc.oct[i]
		o.n = int(conf.freq) + 2 // ix < freq, plus the ix+1 corner
		o.table = resize(o.table, o.n*o.n)
		newLattice(seed+int64(i)*7919).fill(o.table, o.n)
		o.cols = resize(o.cols, w)
		o.fades = resize(o.fades, w)
		o.row0 = resize(o.row0, w)
		o.row1 = resize(o.row1, w)
		o.iy = -1
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w) * conf.freq
			ix := int(math.Floor(fx))
			o.cols[x] = ix
			o.fades[x] = fade(fx - float64(ix))
		}
		amp[i] = conf.amp * texAmp
	}

	cs := &sc.cells
	var sums [grid * grid]float64
	cs.n = [grid * grid]int{}
	for c := range cs.min {
		cs.min[c], cs.max[c] = math.Inf(1), math.Inf(-1)
	}
	runs := cellRuns(w)
	a0, a1, a2 := amp[0], amp[1], amp[2]
	o0, o1, o2 := &sc.oct[0], &sc.oct[1], &sc.oct[2]
	for y := 0; y < h; y++ {
		for i, conf := range octaves {
			fy := float64(y) / float64(h) * conf.freq
			iy := int(math.Floor(fy))
			ty[i] = fade(fy - float64(iy))
			if o := &sc.oct[i]; iy != o.iy {
				o.lerpRows(iy)
			}
		}
		ty0, ty1, ty2 := ty[0], ty[1], ty[2]
		r00, r01 := o0.row0[:w], o0.row1[:w]
		r10, r11 := o1.row0[:w], o1.row1[:w]
		r20, r21 := o2.row0[:w], o2.row1[:w]
		out := sc.tex[y*w:][:w]
		rowCell := (y * grid / h) * grid
		for cx := 0; cx < grid; cx++ {
			c := rowCell + cx
			sum, lo, hi := sums[c], cs.min[c], cs.max[c]
			for x := runs[cx]; x < runs[cx+1]; x++ {
				t := 0.0
				t += a0 * lerp(r00[x], r01[x], ty0)
				t += a1 * lerp(r10[x], r11[x], ty1)
				t += a2 * lerp(r20[x], r21[x], ty2)
				out[x] = t
				sum += t
				if t < lo {
					lo = t
				}
				if t > hi {
					hi = t
				}
			}
			sums[c], cs.min[c], cs.max[c] = sum, lo, hi
			cs.n[c] += runs[cx+1] - runs[cx]
		}
	}
	for c, n := range cs.n {
		cs.mean[c] = 0
		if n > 0 {
			cs.mean[c] = sums[c] / float64(n)
		}
	}
	return sc.tex
}

// lerpRows builds the octave's horizontal lerps along lattice rows iy
// and iy+1.
func (o *octaveRows) lerpRows(iy int) {
	r0 := o.table[iy*o.n:]
	r1 := o.table[(iy+1)*o.n:]
	for x, ix := range o.cols {
		tx := o.fades[x]
		o.row0[x] = lerp(r0[ix], r0[ix+1], tx)
		o.row1[x] = lerp(r1[ix], r1[ix+1], tx)
	}
	o.iy = iy
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
// t, row-major, for n ≤ 256. It is value's hash, with the FNV-1a state
// after the seed and after ix each computed once instead of once per
// entry. A coordinate below 256 is one byte and seven zero bytes, and
// XORing in a zero byte changes nothing, so continuing state h over it
// is (h^v)·prime⁸.
func (l lattice) fill(t []float64, n int) {
	seeded := fnvInt64(fnvOffset, l.seed)
	for ix := 0; ix < n; ix++ {
		col := (seeded ^ uint64(ix)) * fnvPrime8
		for iy := 0; iy < n; iy++ {
			t[iy*n+ix] = unit((col ^ uint64(iy)) * fnvPrime8)
		}
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	fnvPrime8 = fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime * fnvPrime % (1 << 64)
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

// An embedding is a feature vector the size of metrics.EmbedDim, kept
// off the heap.
type embedding = [metrics.EmbedDim]float64

// centered returns v, of length metrics.EmbedDim, less its mean.
func centered(v []float64) (out embedding) {
	copy(out[:], v)
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
func randomUnitZeroMean(rng *rand.Rand, excl *embedding) embedding {
	var draws embedding
	for i := range draws {
		draws[i] = rng.NormFloat64()
	}
	v := centered(draws[:])
	if excl != nil {
		var dot float64
		for i := range v {
			dot += v[i] * excl[i]
		}
		for i := range v {
			v[i] -= dot * excl[i]
		}
	}
	n := norm(v[:])
	if n == 0 {
		v[0], v[1] = 0.7071, -0.7071
		return v
	}
	scale(v[:], 1/n)
	return v
}
