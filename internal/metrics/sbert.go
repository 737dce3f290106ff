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

// An Interval is a sample mean with its 95% confidence interval.
type Interval struct{ Mean, Lo, Hi float64 }

// MeanInterval returns the mean of xs with the 95% Student-t interval
// around it, taking xs as independent draws of one distribution. With
// fewer than two samples the spread is unknown and the interval is the
// whole line.
func MeanInterval(xs []float64) Interval {
	m := Mean(xs)
	if len(xs) < 2 {
		return Interval{m, math.Inf(-1), math.Inf(1)}
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	n := float64(len(xs))
	half := t975(len(xs)-1) * math.Sqrt(ss/(n-1)/n)
	return Interval{m, m - half, m + half}
}

// Contains reports whether x lies inside iv, ends included.
func (iv Interval) Contains(x float64) bool { return iv.Lo <= x && x <= iv.Hi }

// t975 is the 97.5th percentile of Student's t with df degrees of
// freedom: tabulated to 30, and past it the Cornish–Fisher expansion
// about the normal's, within 1e-4 of the exact value there.
func t975(df int) float64 {
	table := [...]float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042}
	if df <= len(table) {
		return table[df-1]
	}
	const z = 1.959964
	v := float64(df)
	return z + (z*z*z+z)/(4*v) + (5*z*z*z*z*z+16*z*z*z+3*z)/(96*v*v)
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
