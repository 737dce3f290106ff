package genai_test

import (
	"fmt"
	"image"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/genai"
	_ "sww/internal/genai/imagegen" // registers models for the pipeline test
	"sww/internal/metrics"
)

// countingImageModel is a deterministic fake that counts real
// generations and implements GenTimer for cross-class retiming.
type countingImageModel struct {
	gens  atomic.Int64
	block chan struct{} // when non-nil, Generate waits on it
}

func (m *countingImageModel) Name() string                        { return "fake-img" }
func (m *countingImageModel) ServerOnly() bool                    { return false }
func (m *countingImageModel) LoadTime(device.Class) time.Duration { return 0 }
func (m *countingImageModel) GenTime(class device.Class, w, h, steps int) (time.Duration, error) {
	return time.Duration(int(class)+1) * time.Second, nil
}

func (m *countingImageModel) Generate(req genai.ImageRequest) (genai.ImageResult, error) {
	if m.block != nil {
		<-m.block
	}
	m.gens.Add(1)
	img := image.NewPaletted(image.Rect(0, 0, req.Width, req.Height), nil)
	st, _ := m.GenTime(req.Class, req.Width, req.Height, req.Steps)
	return genai.ImageResult{
		Image:   img,
		PNG:     []byte(req.Prompt),
		SimTime: st,
		Model:   m.Name(),
	}, nil
}

type countingTextModel struct{ exps atomic.Int64 }

func (m *countingTextModel) Name() string                        { return "fake-txt" }
func (m *countingTextModel) LoadTime(device.Class) time.Duration { return 0 }
func (m *countingTextModel) GenTime(class device.Class, words int) (time.Duration, error) {
	return time.Duration(words) * time.Millisecond * time.Duration(int(class)+1), nil
}

func (m *countingTextModel) Expand(req genai.TextRequest) (genai.TextResult, error) {
	m.exps.Add(1)
	st, _ := m.GenTime(req.Class, req.TargetWords)
	return genai.TextResult{Text: "prose", Words: 1, SimTime: st, Model: m.Name()}, nil
}

func TestArtifactCacheImageHitMiss(t *testing.T) {
	m := &countingImageModel{}
	c := genai.NewArtifactCache(1 << 20)
	req := genai.ImageRequest{Prompt: "p", Width: 8, Height: 8, Class: device.ClassLaptop}
	a, err := c.Image(m, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Image(m, req)
	if err != nil {
		t.Fatal(err)
	}
	if m.gens.Load() != 1 {
		t.Fatalf("%d generations, want 1", m.gens.Load())
	}
	if string(a.PNG) != string(b.PNG) || a.SimTime != b.SimTime {
		t.Fatal("cached result differs from generated")
	}
	// Defaulted and explicit forms of the same request share an entry.
	if _, err := c.Image(m, genai.ImageRequest{Prompt: "q", Class: device.ClassLaptop}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Image(m, genai.ImageRequest{Prompt: "q", Width: 224, Height: 224, Steps: 15, Class: device.ClassLaptop}); err != nil {
		t.Fatal(err)
	}
	if m.gens.Load() != 2 {
		t.Fatalf("%d generations after defaulted repeat, want 2", m.gens.Load())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses / 2 entries", st)
	}
	if st.Bytes <= 0 {
		t.Errorf("stats.Bytes = %d", st.Bytes)
	}
}

// TestArtifactCacheCrossClass: a second device class reuses the
// class-independent artifact but gets its own SimTime via GenTimer.
func TestArtifactCacheCrossClass(t *testing.T) {
	m := &countingImageModel{}
	c := genai.NewArtifactCache(1 << 20)
	lap, err := c.Image(m, genai.ImageRequest{Prompt: "p", Width: 8, Height: 8, Class: device.ClassLaptop})
	if err != nil {
		t.Fatal(err)
	}
	work, err := c.Image(m, genai.ImageRequest{Prompt: "p", Width: 8, Height: 8, Class: device.ClassWorkstation})
	if err != nil {
		t.Fatal(err)
	}
	if m.gens.Load() != 1 {
		t.Fatalf("%d generations, want 1 (artifact shared across classes)", m.gens.Load())
	}
	wantLap, _ := m.GenTime(device.ClassLaptop, 8, 8, 15)
	wantWork, _ := m.GenTime(device.ClassWorkstation, 8, 8, 15)
	if lap.SimTime != wantLap || work.SimTime != wantWork {
		t.Errorf("SimTime = %v/%v, want %v/%v", lap.SimTime, work.SimTime, wantLap, wantWork)
	}
}

func TestArtifactCacheCoalescesConcurrent(t *testing.T) {
	m := &countingImageModel{block: make(chan struct{})}
	c := genai.NewArtifactCache(1 << 20)
	req := genai.ImageRequest{Prompt: "burst", Width: 8, Height: 8, Class: device.ClassLaptop}
	const callers = 8
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			if _, err := c.Image(m, req); err != nil {
				t.Error(err)
			}
		}()
	}
	// Let the burst pile up on the singleflight, then release.
	time.Sleep(20 * time.Millisecond)
	close(m.block)
	wg.Wait()
	if n := m.gens.Load(); n != 1 {
		t.Errorf("%d generations for a concurrent identical burst, want 1", n)
	}
}

func TestArtifactCacheEviction(t *testing.T) {
	m := &countingImageModel{}
	// Each 8×8 entry costs len(PNG) + len(Pix) = 2 + 64 bytes; cap the
	// cache so only a couple fit.
	c := genai.NewArtifactCache(150)
	for i := 0; i < 6; i++ {
		req := genai.ImageRequest{Prompt: fmt.Sprintf("p%d", i), Width: 8, Height: 8, Class: device.ClassLaptop}
		if _, err := c.Image(m, req); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 150 {
		t.Errorf("cache holds %d bytes, cap 150", st.Bytes)
	}
	if st.Entries != 2 {
		t.Errorf("%d entries under a 150-byte cap, want 2 of 66 bytes each", st.Entries)
	}
	// The oldest entry was evicted: requesting it generates again.
	before := m.gens.Load()
	if _, err := c.Image(m, genai.ImageRequest{Prompt: "p0", Width: 8, Height: 8, Class: device.ClassLaptop}); err != nil {
		t.Fatal(err)
	}
	if m.gens.Load() != before+1 {
		t.Error("evicted entry served from cache")
	}
}

func TestArtifactCacheText(t *testing.T) {
	m := &countingTextModel{}
	c := genai.NewArtifactCache(1 << 20)
	req := genai.TextRequest{Bullets: []string{"a", "b"}, TargetWords: 50, Class: device.ClassLaptop}
	if _, err := c.Text(m, req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Text(m, req); err != nil {
		t.Fatal(err)
	}
	if m.exps.Load() != 1 {
		t.Fatalf("%d expansions, want 1", m.exps.Load())
	}
	// Cross-class retime.
	res, err := c.Text(m, genai.TextRequest{Bullets: []string{"a", "b"}, TargetWords: 50, Class: device.ClassWorkstation})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.GenTime(device.ClassWorkstation, 50)
	if res.SimTime != want {
		t.Errorf("cross-class SimTime = %v, want %v", res.SimTime, want)
	}
	if m.exps.Load() != 1 {
		t.Errorf("%d expansions after cross-class hit, want 1", m.exps.Load())
	}
}

// embeddingImageModel returns artifacts that carry a memoized prompt
// embedding, the ride-along payload whose bytes the LRU must account.
type embeddingImageModel struct{ countingImageModel }

func (m *embeddingImageModel) Generate(req genai.ImageRequest) (genai.ImageResult, error) {
	res, err := m.countingImageModel.Generate(req)
	if err != nil {
		return res, err
	}
	res.PromptEmbedding = metrics.EmbedTextArray(req.Prompt)
	return res, nil
}

// TestArtifactCacheEmbeddingBytesAccounted: regression for the cache
// accounting bug where ImageResult.PromptEmbedding bytes (8 per
// float64) were held by the entry but never charged against the LRU
// cap — phantom memory the byte bound could not see.
func TestArtifactCacheEmbeddingBytesAccounted(t *testing.T) {
	m := &embeddingImageModel{}
	c := genai.NewArtifactCache(1 << 20)
	if _, err := c.Image(m, genai.ImageRequest{Prompt: "p", Width: 8, Height: 8, Class: device.ClassLaptop}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// One entry: PNG ("p") + 8×8 indexed pixels (64) + the 64-float
	// embedding.
	const want = 1 + 8*8 + metrics.EmbedDim*8
	if st.Bytes != want {
		t.Fatalf("stats.Bytes = %d, want %d (PNG + 1 B/px plane + embedding)", st.Bytes, want)
	}
}

// TestArtifactCacheCoalescedInvariant: every request increments
// exactly one of hits/misses/coalesced, so their sum equals the
// request count even under a concurrent identical burst.
func TestArtifactCacheCoalescedInvariant(t *testing.T) {
	m := &countingImageModel{block: make(chan struct{})}
	c := genai.NewArtifactCache(1 << 20)
	req := genai.ImageRequest{Prompt: "burst", Width: 8, Height: 8, Class: device.ClassLaptop}
	const callers = 8
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			if _, err := c.Image(m, req); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(m.block)
	wg.Wait()
	st := c.Stats()
	if got := st.Hits + st.Misses + st.Coalesced; got != callers {
		t.Fatalf("hits(%d)+misses(%d)+coalesced(%d) = %d, want %d requests",
			st.Hits, st.Misses, st.Coalesced, got, callers)
	}
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single generation)", st.Misses)
	}
}

// timerlessImageModel cannot re-time artifacts for another device
// class (no GenTimer), so a cross-class request takes the
// re-derive-and-replace path: a fresh generation stored under the
// same digest key.
type timerlessImageModel struct {
	gens atomic.Int64
}

func (m *timerlessImageModel) Name() string                        { return "fake-img-nt" }
func (m *timerlessImageModel) ServerOnly() bool                    { return false }
func (m *timerlessImageModel) LoadTime(device.Class) time.Duration { return 0 }
func (m *timerlessImageModel) Generate(req genai.ImageRequest) (genai.ImageResult, error) {
	m.gens.Add(1)
	img := image.NewPaletted(image.Rect(0, 0, req.Width, req.Height), nil)
	return genai.ImageResult{
		Image:   img,
		PNG:     []byte(req.Prompt),
		SimTime: time.Duration(int(req.Class)+1) * time.Second,
		Model:   m.Name(),
	}, nil
}

// TestArtifactCacheReplaceAccounting: when a cross-class re-derive
// replaces an entry under the same key, LRU bytes must equal the new
// entry's size — not the sum of both (double-count) and not stale
// remains of the displaced one.
func TestArtifactCacheReplaceAccounting(t *testing.T) {
	m := &timerlessImageModel{}
	c := genai.NewArtifactCache(1 << 20)
	if _, err := c.Image(m, genai.ImageRequest{Prompt: "p", Width: 8, Height: 8, Class: device.ClassLaptop}); err != nil {
		t.Fatal(err)
	}
	oneEntry := c.Stats().Bytes
	if oneEntry <= 0 {
		t.Fatalf("bytes = %d after first generation", oneEntry)
	}
	// Same artifact tuple, different class: the hit fails (no
	// GenTimer), a second generation replaces the entry in place.
	if _, err := c.Image(m, genai.ImageRequest{Prompt: "p", Width: 8, Height: 8, Class: device.ClassWorkstation}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if m.gens.Load() != 2 {
		t.Fatalf("%d generations, want 2 (cross-class without GenTimer regenerates)", m.gens.Load())
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d after same-key replace, want 1", st.Entries)
	}
	if st.Bytes != oneEntry {
		t.Fatalf("bytes = %d after replace, want %d (no double-count, no phantom bytes)", st.Bytes, oneEntry)
	}
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 0/2", st.Hits, st.Misses)
	}
}

// TestPipelineCacheEquivalence: a cached pipeline returns results
// identical to an uncached one, and SimLoadTime accounting is
// unchanged by caching.
func TestPipelineCacheEquivalence(t *testing.T) {
	reqs := []genai.ImageRequest{
		{Prompt: "same prompt"},
		{Prompt: "same prompt"},
		{Prompt: "other prompt", Width: 64, Height: 64},
	}
	plain, err := genai.NewPipeline(device.ClassLaptop, "sd2.1-base", "")
	if err != nil {
		t.Skip("imagegen not linked into genai tests:", err)
	}
	cached, _ := genai.NewPipeline(device.ClassLaptop, "sd2.1-base", "")
	cached.Cache = genai.NewArtifactCache(genai.DefaultArtifactCacheBytes)
	for i, req := range reqs {
		a, err := plain.GenerateImage(req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cached.GenerateImage(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(a.PNG) != string(b.PNG) || a.SimTime != b.SimTime || a.Alignment != b.Alignment {
			t.Errorf("req %d: cached pipeline diverged from plain", i)
		}
	}
	if plain.SimLoadTime() != cached.SimLoadTime() {
		t.Errorf("SimLoadTime %v (plain) vs %v (cached)", plain.SimLoadTime(), cached.SimLoadTime())
	}
}
