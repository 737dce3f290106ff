// Package metrics implements the content-quality metrics of paper §6.3:
// a CLIP-score analogue for prompt↔image similarity, an SBERT-score
// analogue for reference↔candidate text similarity, word-length
// overshoot, and the Elo rating engine used for the user-opinion
// column of Table 1.
//
// Substitution note (see DESIGN.md): the real metrics run neural
// encoders. Here both text and images are embedded with deterministic
// feature hashing into a shared 64-dimensional space; generators in
// internal/genai plant prompt features into the media they emit with a
// per-model fidelity, so the measured similarity reproduces the
// paper's score ordering while remaining a pure function of the bytes
// being scored.
package metrics

import (
	"image"
	"image/color"
	"math"
	"strings"
	"unicode"
)

// EmbedDim is the dimensionality of the shared embedding space. It is
// also the cell count of the image feature grid (8×8).
const EmbedDim = 64

// stopwords are excluded from text embeddings so that filler does not
// dominate content words.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true,
	"of": true, "in": true, "on": true, "at": true, "to": true,
	"is": true, "are": true, "was": true, "were": true, "with": true,
	"for": true, "by": true, "as": true, "it": true, "its": true,
	"this": true, "that": true, "be": true, "from": true,
}

// Tokenize lowercases s and splits it into word tokens: the maximal
// runs of letters and numbers.
func Tokenize(s string) []string { return appendWords(nil, s, false) }

// ContentWords returns Tokenize(s) minus stopwords.
func ContentWords(s string) []string { return AppendContentWords(nil, s) }

// AppendContentWords appends ContentWords(s) to dst.
func AppendContentWords(dst []string, s string) []string { return appendWords(dst, s, true) }

// appendWords appends Tokenize(s)'s tokens to dst, less stopwords when
// content is set. The tokens are substrings of lowered s.
func appendWords(dst []string, s string, content bool) []string {
	s = strings.ToLower(s)
	start := -1
	for i, r := range s {
		switch {
		case isWordRune(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst = appendWord(dst, s[start:i], content)
			start = -1
		}
	}
	if start >= 0 {
		dst = appendWord(dst, s[start:], content)
	}
	return dst
}

func appendWord(dst []string, w string, content bool) []string {
	if content && stopwords[w] {
		return dst
	}
	return append(dst, w)
}

func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsNumber(r) }

// hashToken places a token in the embedding by its 64-bit FNV-1a hash.
func hashToken(tok string) (idx int, sign float64) { return hashIndex(fnv1a(fnvOffset, tok)) }

// hashBigram is hashToken(a + "_" + b), without building the string.
func hashBigram(a, b string) (idx int, sign float64) {
	return hashIndex(fnv1a(fnv1a(fnv1a(fnvOffset, a), "_"), b))
}

func hashIndex(v uint64) (idx int, sign float64) {
	idx = int(v % EmbedDim)
	if (v>>32)&1 == 0 {
		return idx, 1
	}
	return idx, -1
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues FNV-1a state h (hash/fnv's New64a) over s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// EmbedText embeds s by signed feature hashing of its content words
// and word bigrams, L2-normalized. The zero vector is returned for
// text with no content words.
func EmbedText(s string) []float64 { v := EmbedTextArray(s); return v[:] }

// EmbedTextArray is EmbedText as an array, which needs no heap.
func EmbedTextArray(s string) (v [EmbedDim]float64) {
	var buf [32]string // a prompt's words, without a heap slice
	words := AppendContentWords(buf[:0], s)
	for i, w := range words {
		idx, sign := hashToken(w)
		v[idx] += sign
		if i+1 < len(words) {
			idx, sign := hashBigram(words[i], words[i+1])
			v[idx] += sign * 0.5
		}
	}
	normalize(v[:])
	return v
}

// EmbedImage extracts the 64-dimensional feature vector of an image:
// the mean-centered luminance of each cell in an 8×8 grid,
// L2-normalized. Generators plant prompt features in exactly these
// statistics, so this is the "CLIP image encoder" of the simulation.
func EmbedImage(img image.Image) []float64 {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w == 0 || h == 0 {
		return make([]float64, EmbedDim)
	}
	const grid = 8
	sums := make([]float64, EmbedDim)
	counts := make([]int, EmbedDim)
	if p, ok := img.(*image.Paletted); ok {
		// An indexed image has one luminance per palette entry: take
		// it once per entry and not, through two interface calls and
		// a boxed colour, once per pixel. Pixel order is the generic
		// loop's, so the sums are its bit for bit.
		var table [256]float64
		luma := table[:min(len(p.Palette), len(table))]
		for i := range luma {
			luma[i] = luma601(p.Palette[i])
		}
		for y := 0; y < h; y++ {
			row := p.Pix[y*p.Stride : y*p.Stride+w]
			rowCell := (y * grid / h) * grid
			for x, k := range row {
				cell := rowCell + x*grid/w
				sums[cell] += luma[k]
				counts[cell]++
			}
		}
	} else {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				cell := (y*grid/h)*grid + x*grid/w
				sums[cell] += luma601(img.At(b.Min.X+x, b.Min.Y+y))
				counts[cell]++
			}
		}
	}
	v := make([]float64, EmbedDim)
	var mean float64
	for i := range v {
		if counts[i] > 0 {
			v[i] = sums[i] / float64(counts[i])
		}
		mean += v[i]
	}
	mean /= EmbedDim
	for i := range v {
		v[i] -= mean
	}
	return normalize(v)
}

// luma601 is a colour's 8-bit Rec.601 luminance.
func luma601(c color.Color) float64 {
	r, g, b, _ := c.RGBA()
	return 0.299*float64(r>>8) + 0.587*float64(g>>8) + 0.114*float64(b>>8)
}

// Cosine returns the cosine similarity of two vectors (0 for zero
// vectors or mismatched lengths).
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

func normalize(v []float64) []float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return v
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
	return v
}
