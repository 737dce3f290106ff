package textgen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sww/internal/device"
	"sww/internal/metrics"
)

// referenceCompose is compose as it was before it stopped building a
// string per sentence, kept verbatim as the golden reference.
func referenceCompose(m *expanderModel, rng *rand.Rand, bullets []string, words int) string {
	var pool []string
	for _, b := range bullets {
		pool = append(pool, metrics.ContentWords(b)...)
	}
	if len(pool) == 0 {
		pool = []string{"content"}
	}
	var out []string
	poolIdx := 0
	sentenceLen := 0
	for len(out) < words {
		if sentenceLen == 0 && len(out) > 0 {
			out = append(out, openers[rng.Intn(len(openers))])
			sentenceLen++
			continue
		}
		var w string
		if rng.Float64() < m.retention {
			w = pool[poolIdx%len(pool)]
			poolIdx++
		} else {
			w = fillerLexicon[rng.Intn(len(fillerLexicon))]
		}
		out = append(out, w)
		sentenceLen++
		if sentenceLen >= 8+rng.Intn(8) {
			sentenceLen = 0
		}
	}
	out = out[:words]
	var b strings.Builder
	start := 0
	for start < len(out) {
		end := start + 10 + rng.Intn(6)
		if end > len(out) {
			end = len(out)
		}
		sentence := strings.Join(out[start:end], " ")
		b.WriteString(strings.ToUpper(sentence[:1]))
		b.WriteString(sentence[1:])
		b.WriteString(". ")
		start = end
	}
	return strings.TrimSpace(b.String())
}

// TestComposeMatchesReference: the prose, and the generator state after
// it, are the reference's for every model, across lengths and bullets
// that lower, that start sentences with a multi-byte rune, and that
// leave no content word at all.
func TestComposeMatchesReference(t *testing.T) {
	bulletSets := [][]string{
		evalBullets,
		{"Zürich ÉTÉ über alles", "Ölberg and the ÅLAND isles"},
		{"éclair", "ñandú", "日本 の 山"},
		{"the", "a an of"},
		nil,
	}
	for _, m := range Models() {
		for bi, bullets := range bulletSets {
			for _, words := range []int{5, 9, 10, 11, 60, 257} {
				seed := int64(words*31 + bi)
				want := referenceCompose(m, rand.New(rand.NewSource(seed)), bullets, words)
				rng := rand.New(rand.NewSource(seed))
				if got := m.compose(rng, bullets, words); got != want {
					t.Fatalf("%s, bullets %d, %d words:\n got %q\nwant %q", m.name, bi, words, got, want)
				}
				ref := rand.New(rand.NewSource(seed))
				referenceCompose(m, ref, bullets, words)
				if rng.Int63() != ref.Int63() {
					t.Fatalf("%s, bullets %d, %d words: generator state differs after compose", m.name, bi, words)
				}
			}
		}
	}
}

// TestSeedsMatchReference: the expansion seed hashed in place equals the
// hash of the joined bullets, and the memoized jitter is the one a fresh
// source draws.
func TestSeedsMatchReference(t *testing.T) {
	for _, bullets := range [][]string{nil, {""}, {"one"}, evalBullets, {"a\nb", "", "c"}} {
		if got, want := bulletsSeed(ds8.name, bullets), seedOf(ds8.name, strings.Join(bullets, "\n")); got != want {
			t.Errorf("bulletsSeed(%q) = %d, want %d", bullets, got, want)
		}
	}
	for _, words := range []int{1, 60, 100, 250, 1000} {
		for _, class := range []device.Class{device.ClassLaptop, device.ClassWorkstation} {
			rng := rand.New(rand.NewSource(seedOf(ds8.name, fmt.Sprint(class), fmt.Sprint(words))))
			want := max(1+0.05*rng.NormFloat64(), 0.9)
			for pass := 0; pass < 2; pass++ { // drawn, then memoized
				if got := ds8.jitter(class, words); got != want {
					t.Errorf("jitter(%v, %d) pass %d = %v, want %v", class, words, pass, got, want)
				}
			}
		}
	}
}
