package metrics

import (
	"hash/fnv"
	"image"
	"image/color"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! It's 42°C...")
	want := []string{"hello", "world", "it", "s", "42", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("the hike is on a trail with views")
	want := []string{"hike", "trail", "views"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %q", i, got[i])
		}
	}
}

// TestHashTokenMatchesFNV: the in-place hashes place tokens and bigrams
// where hash/fnv's FNV-1a of the token, or of a + "_" + b, does.
func TestHashTokenMatchesFNV(t *testing.T) {
	ref := func(tok string) (int, float64) {
		h := fnv.New64a()
		h.Write([]byte(tok))
		v := h.Sum64()
		if (v>>32)&1 == 0 {
			return int(v % EmbedDim), 1
		}
		return int(v % EmbedDim), -1
	}
	f := func(a, b string) bool {
		i, s := hashToken(a)
		ri, rs := ref(a)
		bi, bs := hashBigram(a, b)
		rbi, rbs := ref(a + "_" + b)
		return i == ri && s == rs && bi == rbi && bs == rbs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEmbedTextProperties(t *testing.T) {
	e1 := EmbedText("alpine lake with snowy mountains")
	e2 := EmbedText("alpine lake with snowy mountains")
	e3 := EmbedText("alpine lake beneath snowy mountains at dawn")
	e4 := EmbedText("quarterly financial report earnings statement")

	if Cosine(e1, e2) < 0.999 {
		t.Error("embedding not deterministic")
	}
	if n := vecNorm(e1); math.Abs(n-1) > 1e-9 {
		t.Errorf("norm = %v, want 1", n)
	}
	simRelated := Cosine(e1, e3)
	simUnrelated := Cosine(e1, e4)
	if simRelated <= simUnrelated {
		t.Errorf("related %.3f <= unrelated %.3f", simRelated, simUnrelated)
	}
	if simRelated < 0.5 {
		t.Errorf("related texts score only %.3f", simRelated)
	}
	if math.Abs(simUnrelated) > 0.45 {
		t.Errorf("unrelated texts score %.3f", simUnrelated)
	}
	// Stopword-only text embeds to zero.
	if vecNorm(EmbedText("the a of and")) != 0 {
		t.Error("stopword-only text should embed to zero")
	}
}

func TestEmbedImage(t *testing.T) {
	// An image with a bright left half and dark right half must have
	// positive features on the left cells, negative on the right.
	img := image.NewRGBA(image.Rect(0, 0, 64, 64))
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			v := uint8(40)
			if x < 32 {
				v = 220
			}
			i := img.PixOffset(x, y)
			img.Pix[i], img.Pix[i+1], img.Pix[i+2], img.Pix[i+3] = v, v, v, 255
		}
	}
	e := EmbedImage(img)
	if len(e) != EmbedDim {
		t.Fatalf("dim = %d", len(e))
	}
	if e[0] <= 0 || e[7] >= 0 {
		t.Errorf("left cell %.3f, right cell %.3f", e[0], e[7])
	}
	if math.Abs(vecNorm(e)-1) > 1e-9 {
		t.Error("image embedding not normalized")
	}
	// Embedding must be resolution-invariant for the same content.
	big := image.NewRGBA(image.Rect(0, 0, 256, 256))
	for y := 0; y < 256; y++ {
		for x := 0; x < 256; x++ {
			v := uint8(40)
			if x < 128 {
				v = 220
			}
			i := big.PixOffset(x, y)
			big.Pix[i], big.Pix[i+1], big.Pix[i+2], big.Pix[i+3] = v, v, v, 255
		}
	}
	if Cosine(e, EmbedImage(big)) < 0.999 {
		t.Error("embedding not resolution invariant")
	}
}

// opaqueImage hides an image's concrete type, so EmbedImage takes its
// generic per-pixel path.
type opaqueImage struct{ image.Image }

// TestEmbedImagePalettedFastPath: the per-palette-entry path returns
// the generic path's vector bit for bit — on a sub-image with a
// non-zero origin and sides that are no multiple of the grid, with
// palette entries of both colour types a paletted image meets here
// (NRGBA from the generator, RGBA from png.Decode).
func TestEmbedImagePalettedFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pal := make(color.Palette, 200)
	for i := range pal {
		if i%2 == 0 {
			pal[i] = color.NRGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 255}
		} else {
			pal[i] = color.RGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: 255}
		}
	}
	full := image.NewPaletted(image.Rect(0, 0, 90, 70), pal)
	for i := range full.Pix {
		full.Pix[i] = uint8(rng.Intn(len(pal)))
	}
	for _, img := range []*image.Paletted{
		full,
		full.SubImage(image.Rect(5, 9, 72, 52)).(*image.Paletted),
		full.SubImage(image.Rect(3, 3, 8, 6)).(*image.Paletted), // smaller than the grid
	} {
		fast, generic := EmbedImage(img), EmbedImage(opaqueImage{img})
		for i := range generic {
			if fast[i] != generic[i] {
				t.Fatalf("%v: feature %d = %v on the fast path, %v on the generic one", img.Rect, i, fast[i], generic[i])
			}
		}
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		av, bv := a[:], b[:]
		// Bound magnitudes: astronomically large inputs overflow the
		// dot product, which is out of scope for embedding vectors.
		for i := range av {
			av[i] = math.Remainder(av[i], 1e6)
			bv[i] = math.Remainder(bv[i], 1e6)
		}
		c := Cosine(av, bv)
		if math.IsNaN(c) || c < -1.0001 || c > 1.0001 {
			return false
		}
		return math.Abs(Cosine(av, bv)-Cosine(bv, av)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	v := []float64{1, 2, 3}
	if math.Abs(Cosine(v, v)-1) > 1e-9 {
		t.Error("cos(v,v) != 1")
	}
	if Cosine(v, []float64{0, 0, 0}) != 0 {
		t.Error("cos with zero vector should be 0")
	}
	if Cosine(v, []float64{1, 2}) != 0 {
		t.Error("cos with mismatched lengths should be 0")
	}
}

func TestCLIPMapping(t *testing.T) {
	if got := CLIPScoreFromCosine(0); got != 0.09 {
		t.Errorf("floor = %v", got)
	}
	if got := CLIPScoreFromCosine(1); got != 0.35 {
		t.Errorf("ceil = %v", got)
	}
	if got := CLIPScoreFromCosine(-0.5); got != 0.09 {
		t.Errorf("negative cos = %v, want floor", got)
	}
	// Round trip through the inverse used for calibration.
	for _, s := range []float64{0.19, 0.27, 0.32} {
		a := AlignmentForCLIP(s)
		if got := CLIPScoreFromCosine(a); math.Abs(got-s) > 1e-9 {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
	if AlignmentForCLIP(0.01) != 0 || AlignmentForCLIP(0.99) != 1 {
		t.Error("AlignmentForCLIP not clamped")
	}
}

func TestSBERTScore(t *testing.T) {
	ref := "trail starts at the lake and climbs to panoramic summit views"
	same := SBERTScore(ref, ref)
	if same < 0.99 {
		t.Errorf("identical texts = %.3f", same)
	}
	para := SBERTScore(ref, "the trail climbs from the lake toward summit views with panoramic scenery")
	unrel := SBERTScore(ref, "interest rates and quarterly bond yields fell sharply")
	if para <= unrel {
		t.Errorf("paraphrase %.3f <= unrelated %.3f", para, unrel)
	}
	if para < 0.75 {
		t.Errorf("paraphrase = %.3f, too low", para)
	}
	if unrel > 0.5 {
		t.Errorf("unrelated = %.3f, too high", unrel)
	}
}

func TestOvershoot(t *testing.T) {
	if got := Overshoot(110, 100); math.Abs(got-0.10) > 1e-9 {
		t.Errorf("overshoot = %v", got)
	}
	if got := Overshoot(90, 100); math.Abs(got+0.10) > 1e-9 {
		t.Errorf("undershoot = %v", got)
	}
	if Overshoot(50, 0) != 0 {
		t.Error("zero want should yield 0")
	}
}

func TestPercentileAndMean(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	if got := Mean(xs); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if Percentile(nil, 50) != 0 || Mean(nil) != 0 {
		t.Error("empty inputs should yield 0")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanInterval(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name         string
		xs           []float64
		mean, lo, hi float64
	}{
		// mean 3, s² = 10/4, half-width t₄·√(2.5/5) = 2.776·0.70711.
		{"1..5", []float64{1, 2, 3, 4, 5}, 3, 3 - 1.962928, 3 + 1.962928},
		// mean 0.5, s² = 1/3, half-width t₃·√(1/12) = 3.182·0.288675.
		{"0011", []float64{0, 0, 1, 1}, 0.5, 0.5 - 0.918564, 0.5 + 0.918564},
		{"n=1", []float64{0.25}, 0.25, -inf, inf},
		{"empty", nil, 0, -inf, inf},
		{"constant", []float64{0.75, 0.75, 0.75, 0.75, 0.75}, 0.75, 0.75, 0.75},
	} {
		near := func(got, want float64) bool { return got == want || math.Abs(got-want) < 1e-6 }
		iv := MeanInterval(tc.xs)
		if iv.Mean != tc.mean || !near(iv.Lo, tc.lo) || !near(iv.Hi, tc.hi) {
			t.Errorf("%s: MeanInterval = %+v, want {%v %v %v}", tc.name, iv, tc.mean, tc.lo, tc.hi)
		}
		in := []float64{iv.Lo, tc.mean, iv.Hi}
		out := []float64{tc.lo - 1e-3, tc.hi + 1e-3}
		if math.IsInf(tc.lo, -1) {
			in, out = []float64{-math.MaxFloat64, tc.mean, math.MaxFloat64}, nil
		}
		for _, x := range in {
			if !iv.Contains(x) {
				t.Errorf("%s: %+v does not contain %v", tc.name, iv, x)
			}
		}
		for _, x := range out {
			if iv.Contains(x) {
				t.Errorf("%s: %+v contains %v", tc.name, iv, x)
			}
		}
	}
	// Past the table: the expansion against exact quantiles.
	for df, want := range map[int]float64{30: 2.042, 31: 2.039513, 60: 2.000298, 120: 1.979930} {
		if got := t975(df); math.Abs(got-want) > 1e-4 {
			t.Errorf("t975(%d) = %v, want %v", df, got, want)
		}
	}
}

func TestEloExpectedScore(t *testing.T) {
	if got := ExpectedScore(1000, 1000); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("equal ratings = %v", got)
	}
	// 400 points difference = 10:1 odds.
	if got := ExpectedScore(1400, 1000); math.Abs(got-10.0/11) > 1e-9 {
		t.Errorf("+400 = %v", got)
	}
	if got := ExpectedScore(1000, 1400) + ExpectedScore(1400, 1000); math.Abs(got-1) > 1e-9 {
		t.Error("expected scores don't sum to 1")
	}
}

func TestEloBattleConservation(t *testing.T) {
	a := NewArena()
	rng := rand.New(rand.NewSource(1))
	players := []string{"p1", "p2", "p3"}
	for i := 0; i < 100; i++ {
		p1, p2 := players[rng.Intn(3)], players[rng.Intn(3)]
		if p1 == p2 {
			continue
		}
		a.Battle(p1, p2, float64(rng.Intn(2)))
	}
	var sum float64
	for _, p := range players {
		sum += a.Rating(p)
	}
	if math.Abs(sum-3*a.InitialRating) > 1e-6 {
		t.Errorf("rating sum = %v, want %v (Elo is zero-sum)", sum, 3*a.InitialRating)
	}
}

func TestSimulateArenaConvergence(t *testing.T) {
	// Table 1 latents: the arena must recover the published ordering
	// and land near the latent values.
	latent := map[string]float64{
		"sd2.1-base":   688,
		"sd3-medium":   895,
		"sd3.5-medium": 927,
		"dalle-3":      923,
	}
	a := SimulateArena(latent, 400, 7)
	st := a.Standings()
	if st[0].Player != "sd3.5-medium" && st[0].Player != "dalle-3" {
		t.Errorf("leader = %s", st[0].Player)
	}
	if st[len(st)-1].Player != "sd2.1-base" {
		t.Errorf("last = %s", st[len(st)-1].Player)
	}
	for p, l := range latent {
		got := a.Rating(p)
		if math.Abs(got-l) > 60 {
			t.Errorf("%s converged to %.0f, latent %.0f", p, got, l)
		}
	}
	// Determinism.
	b := SimulateArena(latent, 400, 7)
	for p := range latent {
		if a.Rating(p) != b.Rating(p) {
			t.Error("SimulateArena not deterministic for equal seeds")
		}
	}
}

func vecNorm(v []float64) float64 {
	var n float64
	for _, x := range v {
		n += x * x
	}
	return math.Sqrt(n)
}

func BenchmarkEmbedText(b *testing.B) {
	s := "A detailed photograph of an alpine landscape with a turquoise lake below snowy peaks"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EmbedText(s)
	}
}

func BenchmarkEmbedImage224(b *testing.B) {
	img := image.NewRGBA(image.Rect(0, 0, 224, 224))
	for i := range img.Pix {
		img.Pix[i] = byte(i * 31)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EmbedImage(img)
	}
}
