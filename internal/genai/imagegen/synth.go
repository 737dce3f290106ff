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
	"encoding/binary"
	"hash/fnv"
	"image"
	"image/color"
	"math"
	"math/rand/v2"
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
// thousands of images, and the w·h planes are the dominant transient
// allocations, so scratches are recycled whole, with the generator the
// image draws from, the image itself and its encoder's scratch: the
// index plane is lent to whoever holds the scratch, and only the PNG
// leaves it.
type scratch struct {
	rng   *genai.Rand    // reseeded per image
	img   image.Paletted // the image synthesize writes, Pix resized per image
	tex   []float64      // w·h texture plane, then each pixel's luma
	oct   [len(octaves)]octaveRows
	cells cellStats
	enc   indexedScratch // the image's filtered and counted rows
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
	row1  []float64 // and along iy+1,
	diff  []float64 // and row1 − row0
}

// cellStats is what the texture pass learns about each feature cell.
type cellStats struct {
	n    [grid * grid]int
	mean [grid * grid]float64
}

var scratches = sync.Pool{New: func() any { return newScratch() }}

func newScratch() *scratch { return &scratch{rng: genai.NewRand(1)} }

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// synthesize renders, on sc, a w×h image that encodes a feature vector
// with the given target prompt alignment. It returns the image, which
// is sc's and valid until sc is synthesized on again or goes back to
// the pool, the alignment actually planted, and the alignment measured:
// metrics.Cosine of the prompt's metrics.EmbedTextArray and the image's
// metrics.EmbedImage.
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
// The measure and the PNG's filter cost no pass of their own: the
// quantizing pass sums each row's Luma601 of the tint's entries into
// the cells in the row-major order EmbedImage sums in, which
// metrics.ImageEmbedding finishes into the vector, and filters and
// counts the row into sc.enc, from which Generate encodes the PNG.
//
// Every floating-point expression below is associated exactly as in
// the straightforward per-pixel formulation (Go's + and * are
// left-associative), so hoisting per-cell and per-column terms into
// tables keeps the output byte-for-byte identical.
func (sc *scratch) synthesize(prompt string, w, h int, seed int64, targetAlign float64) (img *image.Paletted, planted, measured float64) {
	rng := sc.rng
	rng.Seed(seed)

	// Build the planted vector in the zero-mean subspace that
	// metrics.EmbedImage measures.
	e := metrics.EmbedTextArray(prompt)
	ec := centered(e[:])
	ecNorm := norm(ec[:])
	var v embedding
	if ecNorm < 1e-9 || targetAlign <= 0 {
		// Unconditioned image (the paper's random baseline).
		v = randomUnitZeroMean(rng.Rand, nil)
	} else {
		scale(ec[:], 1/ecNorm)
		// Measured cosine is against the *uncentered* text embedding,
		// so compensate for the centering loss.
		a := targetAlign / ecNorm
		if a > 0.995 {
			a = 0.995
		}
		g := randomUnitZeroMean(rng.Rand, &ec)
		s := math.Sqrt(1 - a*a)
		for i := range v {
			v[i] = a*ec[i] + s*g[i]
		}
		planted = a * ecNorm
	}

	img = &sc.img
	img.Pix = resize(img.Pix, w*h)
	img.Stride, img.Rect = w, image.Rect(0, 0, w, h)
	tex := sc.texture(rng.Int64(), w, h)
	cs := &sc.cells

	// baseLuma + featAmp*v[cell] + (tex[i] - mean[cell]) associates as
	// (baseLuma + featAmp*v[cell]) + (tex[i] - mean[cell]), so the first
	// addition can be folded into a per-cell table.
	var cellBase [grid * grid]float64
	for c := range cellBase {
		cellBase[c] = baseLuma + featAmp*v[c]
	}
	tint := tintTable(tintOf(prompt))
	luma := &tint.luma
	var sums [grid * grid]float64
	var seen [256]bool
	runs := cellRuns(w)
	enc := &sc.enc
	enc.start(w, h)
	var prev []byte
	for y := 0; y < h; y++ {
		rowCell := (y * grid / h) * grid
		row := img.Pix[y*img.Stride:][:w]
		trow := tex[y*w:][:w]
		for cx := 0; cx < grid; cx++ {
			base, mean := cellBase[rowCell+cx], cs.mean[rowCell+cx]
			run := trow[runs[cx]:runs[cx+1]]
			out := row[runs[cx]:][:len(run)]
			for x, t := range run {
				k := clampByte(base + (t - mean))
				out[x] = k
				seen[k] = true
				run[x] = luma[k] // the texture value is spent
			}
		}
		addCells((*[grid]float64)(sums[rowCell:]), trow, &runs)
		enc.filterRow(y, row, prev)
		prev = row
	}
	// PLTE is stored uncompressed, three bytes an entry, so carry only
	// the luminances between the darkest and brightest pixel (~100 of
	// the 256 for a 128² image) and index from the darkest. The rows
	// were filtered unshifted: Paeth picks a neighbour by differences
	// and subtracts it, so the shift moves no residual but the first
	// pixel's, which has no neighbour.
	lo, hi := 0, 255
	for !seen[lo] {
		lo++
	}
	for !seen[hi] {
		hi--
	}
	lower(img.Pix, uint8(lo))
	enc.lowerFirst(uint8(lo))
	// Capped at its length: an append by a consumer reallocates instead
	// of landing in the shared table's next entries.
	img.Palette = tint.pal[lo : hi+1 : hi+1]
	ei := metrics.ImageEmbedding(&sums, &cs.n)
	return img, planted, metrics.Cosine(e[:], ei[:])
}

// lower subtracts k from every byte of b, none of which is below k,
// eight bytes at a time: no byte borrows from the next.
func lower(b []byte, k uint8) {
	kk := uint64(k) * 0x0101010101010101
	for ; len(b) >= 8; b = b[8:] {
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)-kk)
	}
	for i := range b {
		b[i] -= k
	}
}

// addCells adds each value of a row to its feature cell column's sum:
// sums[cx] takes the run [runs[cx], runs[cx+1]). Every run holds q or
// q+1 values, q = len(row)/grid, so the eight sums take their first q
// values together, eight independent chains of additions where a cell
// at a time is one, and then the last value of each longer run. Each
// sum still adds its values in row order, so it is bit for bit the sum
// a cell at a time gives.
func addCells(sums *[grid]float64, row []float64, runs *[grid + 1]int) {
	q := len(row) / grid
	r0, r1, r2, r3 := row[runs[0]:][:q], row[runs[1]:][:q], row[runs[2]:][:q], row[runs[3]:][:q]
	r4, r5, r6, r7 := row[runs[4]:][:q], row[runs[5]:][:q], row[runs[6]:][:q], row[runs[7]:][:q]
	s0, s1, s2, s3, s4, s5, s6, s7 := sums[0], sums[1], sums[2], sums[3], sums[4], sums[5], sums[6], sums[7]
	for j := range q {
		s0 += r0[j]
		s1 += r1[j]
		s2 += r2[j]
		s3 += r3[j]
		s4 += r4[j]
		s5 += r5[j]
		s6 += r6[j]
		s7 += r7[j]
	}
	sums[0], sums[1], sums[2], sums[3], sums[4], sums[5], sums[6], sums[7] = s0, s1, s2, s3, s4, s5, s6, s7
	for cx := range grid {
		if runs[cx+1]-runs[cx] > q {
			sums[cx] += row[runs[cx]+q]
		}
	}
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
// and leaves in sc.cells each feature cell's pixel count and mean.
// Subtracting the mean, which keeps texture from disturbing the planted
// features, is left to the quantizing pass.
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
// three octaves, and carries no dependency from pixel to pixel.
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
		o.diff = resize(o.diff, w)
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
		out := sc.tex[y*w:][:w]
		r0, d0 := o0.row0[:w], o0.diff[:w]
		r1, d1 := o1.row0[:w], o1.diff[:w]
		r2, d2 := o2.row0[:w], o2.diff[:w]
		for x := range out {
			t := 0.0 // lerp(row0, row1, ty) is row0 + (row1−row0)·ty
			t += a0 * (r0[x] + d0[x]*ty0)
			t += a1 * (r1[x] + d1[x]*ty1)
			t += a2 * (r2[x] + d2[x]*ty2)
			out[x] = t
		}
		rowCell := (y * grid / h) * grid
		addCells((*[grid]float64)(sums[rowCell:]), out, &runs)
		for cx := range grid {
			cs.n[rowCell+cx] += runs[cx+1] - runs[cx]
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
// and iy+1, and their difference. Rows come in order, so a lattice row
// that was iy+1 is reused as iy.
func (o *octaveRows) lerpRows(iy int) {
	if o.iy >= 0 && iy == o.iy+1 {
		o.row0, o.row1 = o.row1, o.row0
	} else {
		o.lerpRow(o.row0, iy)
	}
	o.lerpRow(o.row1, iy+1)
	for x, r1 := range o.row1 {
		o.diff[x] = r1 - o.row0[x]
	}
	o.iy = iy
}

// lerpRow writes into row the horizontal lerps along lattice row iy.
func (o *octaveRows) lerpRow(row []float64, iy int) {
	r := o.table[iy*o.n:]
	for x, ix := range o.cols {
		row[x] = lerp(r[ix], r[ix+1], o.fades[x])
	}
}

// lattice is seeded 2-D value noise with bilinear interpolation.
type lattice struct{ seed int64 }

func newLattice(seed int64) lattice { return lattice{seed} }

// value hashes the seed, ix and iy (each eight little-endian bytes)
// with FNV-1a and maps the hash into [-1, 1].
func (l lattice) value(ix, iy int) float64 {
	return unit(fnvInt64(fnvInt64(fnvInt64(fnvOffset, l.seed), int64(ix)), int64(iy)))
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

// tinted is one tint's tables: pal maps luminance k to the tint's
// colour for it, and luma[k] is metrics.Luma601(pal[k]), what
// EmbedImage reads that colour as. Entries are color.NRGBA because that is what png's PLTE
// writer converts every entry to: any other type is boxed once per
// entry per encode.
type tinted struct {
	once sync.Once
	pal  color.Palette
	luma [256]float64
}

// tintTables holds each tint's tables, built by the first image that
// needs them and shared by every later one.
var tintTables [tints]tinted

// tintTable returns tint t's tables.
func tintTable(t int) *tinted {
	e := &tintTables[t]
	e.once.Do(func() {
		cr, cg, cb := tintShift(t)
		e.pal = make(color.Palette, 256)
		for k := range e.pal {
			l := float64(k)
			e.pal[k] = color.NRGBA{R: clampByte(l + cr), G: clampByte(l + cg), B: clampByte(l + cb), A: 255}
			e.luma[k] = metrics.Luma601(e.pal[k])
		}
	})
	return e
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
