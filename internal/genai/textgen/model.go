// Package textgen implements the text-to-text models of paper §6.3.2
// as calibrated procedural expanders: bullet points go in, prose of a
// requested length comes out.
//
// Two calibration knobs map onto the paper's metrics. *Retention*
// controls what fraction of the bullet-point content words survive
// into the prose, which is what the SBERT similarity measures; higher
// retention models paraphrase more faithfully. *Length discipline*
// controls the word-length overshoot distribution (mean ≈ 1.3%, but
// quartiles beyond ±10% and a 20% worst case for the paper's models).
package textgen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/metrics"
)

// Model names, registered at init.
const (
	Llama32    = "llama3.2"
	DeepSeek15 = "deepseek-r1-1.5b"
	DeepSeek8  = "deepseek-r1-8b"
	DeepSeek14 = "deepseek-r1-14b"
)

type expanderModel struct {
	name string

	// retention is the probability a bullet content word survives
	// into the expansion (SBERT calibration).
	retention float64

	// sbertTarget is the paper's measured mean SBERT score, kept for
	// experiment reporting.
	sbertTarget float64

	// overshootMean and overshootSigma parameterize the word-length
	// overshoot distribution; values are clamped to ±maxOvershoot.
	overshootMean, overshootSigma float64

	// baseTime is the generation time at 250 words per device class
	// (Table 2's text row and §6.3.2's ranges).
	baseTime map[device.Class]float64

	// overthink is the short-output penalty of reasoning models
	// (§6.3.2: "50 words text takes longer than 100 and 150 words
	// text for three of the models").
	overthink float64

	loadTime map[device.Class]time.Duration
}

const maxOvershoot = 0.20

func (m *expanderModel) Name() string         { return m.name }
func (m *expanderModel) SBERTTarget() float64 { return m.sbertTarget }

func (m *expanderModel) LoadTime(class device.Class) time.Duration {
	return m.loadTime[class]
}

// lengthFactor models the weak, non-monotonic dependence of
// generation time on requested length: reasoning models spend extra
// tokens thinking before short answers, and long answers cost linear
// decode time.
func (m *expanderModel) lengthFactor(words int) float64 {
	if words <= 0 {
		words = 100
	}
	f := 1 + 0.05*float64(words)/250
	if words < 130 {
		f += m.overthink * math.Log2(130/float64(words))
	}
	return f
}

// GenTime returns the simulated generation latency for a word target
// on a device class. Deterministic per (model, class, words).
func (m *expanderModel) GenTime(class device.Class, words int) (time.Duration, error) {
	base, ok := m.baseTime[class]
	if !ok {
		return 0, fmt.Errorf("textgen: %s cannot run on %v", m.name, class)
	}
	f := m.lengthFactor(words) / m.lengthFactor(250)
	return time.Duration(base * f * m.jitter(class) * float64(time.Second)), nil
}

// jitter is GenTime's small deterministic factor modelling that a
// model decodes a little faster or slower on one device than its
// calibrated base: one normal draw seeded by model and class. It
// scales the model's whole length curve on that device, so the curve's
// shape, §6.3.2's overthinking included, is lengthFactor's whatever
// the draw.
func (m *expanderModel) jitter(class device.Class) float64 {
	rng := rngs.Get().(*genai.Rand)
	defer rngs.Put(rng)
	rng.Seed(jitterSeed(m.name, class))
	return max(1+0.05*rng.NormFloat64(), 0.9)
}

// rngs recycles the generators jitter and Expand draw from.
var rngs = sync.Pool{New: func() any { return genai.NewRand(1) }}

func (m *expanderModel) Expand(req genai.TextRequest) (genai.TextResult, error) {
	if req.TargetWords == 0 {
		req.TargetWords = 100
	}
	simTime, err := m.GenTime(req.Class, req.TargetWords)
	if err != nil {
		return genai.TextResult{}, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = bulletsSeed(m.name, req.Bullets)
	}
	rng := rngs.Get().(*genai.Rand)
	defer rngs.Put(rng)
	rng.Seed(seed)

	// Draw the overshoot for this generation.
	delta := m.overshootMean + m.overshootSigma*rng.NormFloat64()
	if delta > maxOvershoot {
		delta = maxOvershoot
	}
	if delta < -maxOvershoot {
		delta = -maxOvershoot
	}
	words := int(math.Round(float64(req.TargetWords) * (1 + delta)))
	if words < 5 {
		words = 5
	}

	text := m.compose(rng.Rand, req.Bullets, words)
	return genai.TextResult{
		Text:    text,
		Words:   metrics.WordCount(text),
		SimTime: simTime,
		Model:   m.name,
	}, nil
}

// compose writes prose of exactly `words` words, weaving in bullet
// content words with probability retention and filler otherwise.
func (m *expanderModel) compose(rng *rand.Rand, bullets []string, words int) string {
	// Pool of content words from the bullets, cycled in order so all
	// points are covered.
	var buf [64]string // a page's bullets, without a heap slice
	pool := buf[:0]
	for _, b := range bullets {
		pool = metrics.AppendContentWords(pool, b)
	}
	if len(pool) == 0 {
		pool = append(pool, "content")
	}

	// The words are all drawn before the sentence lengths are, so they
	// are kept until then: a page's prose on the stack.
	var wordBuf [128]string
	out := wordBuf[:0]
	if words > len(wordBuf) {
		out = make([]string, 0, words)
	}
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

	// Punctuate into sentences for readability: each one's words joined
	// by spaces, its first letter capitalized, a full stop after it and
	// a space between sentences. Every sentence but the last has at
	// least ten words, which bounds the full stops.
	size := len(out) + len(out)/10 + 1
	for _, w := range out {
		size += len(w)
	}
	var b strings.Builder
	b.Grow(size)
	for start := 0; start < len(out); {
		end := min(start+10+rng.IntN(6), len(out))
		if start > 0 {
			b.WriteByte(' ')
		}
		writeCapitalized(&b, out[start])
		for _, w := range out[start+1 : end] {
			b.WriteByte(' ')
			b.WriteString(w)
		}
		b.WriteByte('.')
		start = end
	}
	return b.String()
}

// writeCapitalized writes w with its first byte upper-cased the way
// strings.ToUpper(w[:1]) does it: an ASCII letter is capitalized, and
// the lead byte of a multi-byte rune, invalid UTF-8 on its own, becomes
// U+FFFD. Expanded text is pinned byte for byte, quirk included.
func writeCapitalized(b *strings.Builder, w string) {
	if c := w[0]; c < utf8.RuneSelf {
		b.WriteByte(byte(unicode.ToUpper(rune(c))))
	} else {
		b.WriteRune(utf8.RuneError)
	}
	b.WriteString(w[1:])
}

var openers = []string{
	"moreover", "notably", "additionally", "meanwhile", "indeed",
	"furthermore", "similarly", "consequently",
}

// fillerLexicon is the generic vocabulary the expander hallucinates
// around the retained content words. Kept small so repeated fillers
// carry little embedding weight.
var fillerLexicon = []string{
	"experience", "visitors", "surroundings", "atmosphere", "journey",
	"setting", "details", "character", "impression", "moments",
	"quality", "highlights", "features", "scenery", "story",
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues FNV-1a state h over s.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// bulletsSeed is the FNV-1a hash of model and of the bullets joined by
// "\n", each part followed by 0x1f, hashed without building the joined
// string.
func bulletsSeed(model string, bullets []string) int64 {
	h := fnv1a(fnv1a(fnvOffset, model), "\x1f")
	for i, b := range bullets {
		if i > 0 {
			h = fnv1a(h, "\n")
		}
		h = fnv1a(h, b)
	}
	return int64(fnv1a(h, "\x1f"))
}

// jitterSeed is the same hash of model and fmt.Sprint(class), without
// formatting into a new string.
func jitterSeed(model string, class device.Class) int64 {
	h := fnv1a(fnv1a(fnvOffset, model), "\x1f")
	return int64(fnv1a(fnv1a(h, class.String()), "\x1f"))
}

// Models returns the calibrated models for experiment code.
func Models() []*expanderModel {
	return []*expanderModel{llama32, ds15, ds8, ds14}
}

var (
	llama32 = &expanderModel{
		name:           Llama32,
		retention:      0.80,
		sbertTarget:    0.86,
		overshootMean:  0.013,
		overshootSigma: 0.15,
		baseTime: map[device.Class]float64{
			device.ClassLaptop:      16.06,
			device.ClassWorkstation: 6.98,
			device.ClassMobile:      48,
		},
		overthink: 0.02,
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      3 * time.Second,
			device.ClassWorkstation: 1 * time.Second,
			device.ClassMobile:      8 * time.Second,
		},
	}
	ds15 = &expanderModel{
		name:           DeepSeek15,
		retention:      0.70,
		sbertTarget:    0.82,
		overshootMean:  0.02,
		overshootSigma: 0.16,
		baseTime: map[device.Class]float64{
			device.ClassLaptop:      19.5,
			device.ClassWorkstation: 8.2,
			device.ClassMobile:      55,
		},
		overthink: 0.15,
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      2 * time.Second,
			device.ClassWorkstation: 800 * time.Millisecond,
			device.ClassMobile:      5 * time.Second,
		},
	}
	ds8 = &expanderModel{
		name:           DeepSeek8,
		retention:      0.91,
		sbertTarget:    0.91,
		overshootMean:  0.013,
		overshootSigma: 0.09,
		baseTime: map[device.Class]float64{
			device.ClassLaptop:      32.0,
			device.ClassWorkstation: 13.0,
			device.ClassMobile:      95,
		},
		overthink: 0.14,
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      6 * time.Second,
			device.ClassWorkstation: 2 * time.Second,
			device.ClassMobile:      15 * time.Second,
		},
	}
	ds14 = &expanderModel{
		name:           DeepSeek14,
		retention:      0.90,
		sbertTarget:    0.90,
		overshootMean:  0.013,
		overshootSigma: 0.11,
		baseTime: map[device.Class]float64{
			device.ClassLaptop:      34.04,
			device.ClassWorkstation: 14.33,
			device.ClassMobile:      110,
		},
		overthink: 0.12,
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      9 * time.Second,
			device.ClassWorkstation: 3 * time.Second,
			device.ClassMobile:      25 * time.Second,
		},
	}
)

func init() {
	genai.RegisterTextModel(llama32)
	genai.RegisterTextModel(ds15)
	genai.RegisterTextModel(ds8)
	genai.RegisterTextModel(ds14)
}
