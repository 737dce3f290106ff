package metrics

import (
	"math"
	"unicode"
)

// SBERT-score analogue, paper §6.3.2: semantic similarity between the
// bullet points sent over the wire and the paragraph a text model
// expanded them into. The paper's models score 0.82–0.91.
//
// Real SBERT embeds sentences with a Siamese BERT. Here similarity is
// the cosine of hashed content-word vectors with sublinear term
// weighting, mapped through a concave curve that mirrors SBERT's
// behaviour: texts sharing most content words score high even when
// filler differs, and unrelated texts score near typicalFloor rather
// than zero (sentence encoders rarely emit orthogonal vectors for
// same-language text).
const sbertFloor = 0.30

// SBERTScore returns the semantic similarity of two texts in [0, 1].
func SBERTScore(reference, candidate string) float64 {
	a := embedBag(reference)
	b := embedBag(candidate)
	cos := Cosine(a, b)
	if cos < 0 {
		cos = 0
	}
	return sbertFloor + (1-sbertFloor)*cos
}

// embedBag embeds text as a hashed bag of content words with
// log-scaled counts (no bigrams: SBERT-style similarity is more
// tolerant of word order than the CLIP-text embedding).
func embedBag(s string) []float64 {
	counts := map[string]int{}
	for _, w := range ContentWords(s) {
		counts[w]++
	}
	v := make([]float64, EmbedDim)
	for w, c := range counts {
		idx, sign := hashToken(w)
		v[idx] += sign * (1 + math.Log(float64(c)))
	}
	return normalize(v)
}

// WordCount returns the number of word tokens in s, len(Tokenize(s)),
// without building them. It lowers each rune as strings.ToLower would,
// so that whether a rune is part of a word is judged on the rune
// Tokenize sees.
func WordCount(s string) int {
	n, in := 0, false
	for _, r := range s {
		w := isWordRune(unicode.ToLower(r))
		if w && !in {
			n++
		}
		in = w
	}
	return n
}

// Overshoot returns the relative deviation of got from want word
// counts, as a fraction: +0.10 means 10% too long (paper §6.3.2,
// "Word Length Overshoot ... percentage of words above or below the
// requested number").
func Overshoot(gotWords, wantWords int) float64 {
	if wantWords == 0 {
		return 0
	}
	return float64(gotWords-wantWords) / float64(wantWords)
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation. xs need not be sorted; it is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	insertionSort(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
