package textgen

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"
	"testing"

	"sww/internal/device"
	"sww/internal/genai"
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
			out = append(out, openers[rng.IntN(len(openers))])
			sentenceLen++
			continue
		}
		var w string
		if rng.Float64() < m.retention {
			w = pool[poolIdx%len(pool)]
			poolIdx++
		} else {
			w = fillerLexicon[rng.IntN(len(fillerLexicon))]
		}
		out = append(out, w)
		sentenceLen++
		if sentenceLen >= 8+rng.IntN(8) {
			sentenceLen = 0
		}
	}
	out = out[:words]
	var b strings.Builder
	start := 0
	for start < len(out) {
		end := start + 10 + rng.IntN(6)
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
				want := referenceCompose(m, pcg(seed), bullets, words)
				rng := genai.NewRand(seed)
				if got := m.compose(rng.Rand, bullets, words); got != want {
					t.Fatalf("%s, bullets %d, %d words:\n got %q\nwant %q", m.name, bi, words, got, want)
				}
				ref := pcg(seed)
				referenceCompose(m, ref, bullets, words)
				if rng.Int64() != ref.Int64() {
					t.Fatalf("%s, bullets %d, %d words: generator state differs after compose", m.name, bi, words)
				}
			}
		}
	}
}

// TestSeedsMatchReference: the expansion seed hashed in place equals the
// hash of the joined bullets, and the jitter is the one a fresh
// generator draws from the hash of the formatted class.
func TestSeedsMatchReference(t *testing.T) {
	for _, bullets := range [][]string{nil, {""}, {"one"}, evalBullets, {"a\nb", "", "c"}} {
		if got, want := bulletsSeed(ds8.name, bullets), seedOf(ds8.name, strings.Join(bullets, "\n")); got != want {
			t.Errorf("bulletsSeed(%q) = %d, want %d", bullets, got, want)
		}
	}
	for _, class := range []device.Class{device.ClassLaptop, device.ClassWorkstation, device.ClassMobile, device.Class(9)} {
		rng := pcg(seedOf(ds8.name, fmt.Sprint(class)))
		want := 1 + 0.05*rng.NormFloat64()
		if want < 0.9 {
			want = 0.9
		}
		if got := ds8.jitter(class); got != want {
			t.Errorf("jitter(%v) = %v, want %v", class, got, want)
		}
	}
}

// pcg is the reference stream of seed: a fresh generator over
// rand.NewPCG with genai's stream word.
func pcg(seed int64) *rand.Rand { return rand.New(rand.NewPCG(uint64(seed), genai.SeedStream)) }

// seedOf is the reference hash of the seeds above: FNV-1a over each
// part and a 0x1f after it.
func seedOf(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0x1f})
	}
	return int64(h.Sum64())
}
