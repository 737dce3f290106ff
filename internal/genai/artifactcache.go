package genai

import (
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"sww/internal/device"
	"sww/internal/metrics"
	"sww/internal/overload"
	"sww/internal/telemetry"
)

// DefaultArtifactCacheBytes is the byte cap page processors attach by
// default: enough for a few hundred 224×224 artifacts (PNG + pixels),
// small next to a real model's working set.
const DefaultArtifactCacheBytes int64 = 64 << 20

// A GenTimer is an ImageModel that can report its simulated
// generation latency without generating. Models that implement it let
// the artifact cache serve one generation's class-independent pixels
// to any device class, re-deriving only the class-dependent SimTime.
type GenTimer interface {
	GenTime(class device.Class, w, h, steps int) (time.Duration, error)
}

// An ExpandTimer is the text-model analog of GenTimer.
type ExpandTimer interface {
	GenTime(class device.Class, words int) (time.Duration, error)
}

// An ArtifactCache is a content-addressed cache for generated media.
// Generation here is deterministic — the artifact is a pure function
// of (model, prompt, dimensions, steps, seed) — so repeat generations
// are pure waste; the cache serves them from a byte-capped LRU and
// coalesces concurrent identical requests through a singleflight
// group, the same primitives the overload package uses for page
// serving.
//
// Entries are keyed by an FNV-64a digest of the request tuple; the
// full tuple is stored alongside the artifact and verified on every
// hit, so a digest collision degrades to a miss rather than serving
// the wrong artifact.
type ArtifactCache struct {
	lru    *overload.ByteLRU
	flight overload.Group

	// Every request increments exactly one of these: hits (served
	// from the LRU, material-verified), misses (ran the model), or
	// coalesced (joined another request's in-flight generation). The
	// invariant hits+misses+coalesced == requests is what makes the
	// counters trustworthy under concurrency — see the stats tests.
	hits, misses, coalesced telemetry.Counter
}

// NewArtifactCache builds a cache bounded to maxBytes of artifact
// payload (PNG + decoded pixels for images, text bytes for prose).
func NewArtifactCache(maxBytes int64) *ArtifactCache {
	return &ArtifactCache{lru: overload.NewByteLRU(maxBytes)}
}

// ArtifactCacheStats is a point-in-time counter snapshot.
// Hits + Misses + Coalesced equals the total requests served.
type ArtifactCacheStats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Entries   int
	Bytes     int64
}

// Stats snapshots the cache counters.
func (c *ArtifactCache) Stats() ArtifactCacheStats {
	return ArtifactCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Entries:   c.lru.Len(),
		Bytes:     c.lru.Bytes(),
	}
}

// Register exports the cache's counters and size gauges into reg
// under the sww_artifact_cache_* family.
func (c *ArtifactCache) Register(reg *telemetry.Registry) {
	reg.Adopt("sww_artifact_cache_hits_total", &c.hits)
	reg.Adopt("sww_artifact_cache_misses_total", &c.misses)
	reg.Adopt("sww_artifact_cache_coalesced_total", &c.coalesced)
	reg.GaugeFunc("sww_artifact_cache_bytes", func() float64 { return float64(c.lru.Bytes()) })
	reg.GaugeFunc("sww_artifact_cache_entries", func() float64 { return float64(c.lru.Len()) })
}

// imageSize is the LRU accounting for one cached image: encoded PNG,
// the one-byte-per-pixel index plane (its palette is a slice of a
// table every image of that tint shares, so no entry owns it), and
// the memoized prompt embedding when the model computed one. The
// embedding ride-along (8 bytes per float64) was previously uncounted,
// leaving phantom bytes in memory that the cap never saw.
func imageSize(res *ImageResult) int64 {
	size := int64(len(res.PNG))
	if res.Image != nil {
		size += int64(len(res.Image.Pix))
	}
	if res.PromptEmbedding != ([metrics.EmbedDim]float64{}) {
		size += int64(len(res.PromptEmbedding)) * 8
	}
	return size
}

type cachedImage struct {
	material    string // full key tuple, verified on hit
	res         ImageResult
	class       device.Class // class whose SimTime res carries
	w, h, steps int          // normalized request, for re-timing
}

type cachedText struct {
	material string
	res      TextResult
	class    device.Class
	words    int
}

func cacheDigest(material string) string {
	h := fnv.New64a()
	h.Write([]byte(material))
	return strconv.FormatUint(h.Sum64(), 16)
}

func imageMaterial(model string, r ImageRequest) string {
	var b strings.Builder
	b.Grow(len(model) + len(r.Prompt) + 48)
	b.WriteString("img\x00")
	b.WriteString(model)
	b.WriteByte(0)
	b.WriteString(r.Prompt)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(r.Width))
	b.WriteByte('x')
	b.WriteString(strconv.Itoa(r.Height))
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(r.Steps))
	b.WriteByte('/')
	b.WriteString(strconv.FormatInt(r.Seed, 10))
	return b.String()
}

func textMaterial(model string, r TextRequest) string {
	var b strings.Builder
	b.WriteString("txt\x00")
	b.WriteString(model)
	b.WriteByte(0)
	for _, bl := range r.Bullets {
		b.WriteString(bl)
		b.WriteByte('\n')
	}
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(r.TargetWords))
	b.WriteByte('/')
	b.WriteString(strconv.FormatInt(r.Seed, 10))
	return b.String()
}

// Image serves req from the cache, generating (at most once per
// concurrent burst) on miss. req is normalized first so explicit and
// defaulted forms of the same request share an entry. A zero req.Seed
// is cacheable: the model derives the effective seed
// deterministically from (model, prompt).
func (c *ArtifactCache) Image(m ImageModel, req ImageRequest) (ImageResult, error) {
	req = req.withDefaults()
	material := imageMaterial(m.Name(), req)
	key := cacheDigest(material)
	if res, ok := c.imageHit(key, material, m, req.Class); ok {
		c.hits.Add(1)
		return res, nil
	}
	// The singleflight key includes the device class: artifacts are
	// class-independent but SimTime is not, so only same-class
	// callers may share one in-flight result.
	fkey := key + "\x00" + strconv.Itoa(int(req.Class))
	v, err, shared := c.flight.Do(fkey, func() (any, error) {
		if res, ok := c.imageHit(key, material, m, req.Class); ok {
			c.hits.Add(1)
			return &res, nil
		}
		c.misses.Add(1)
		res, err := m.Generate(req)
		if err != nil {
			return nil, err
		}
		ci := &cachedImage{
			material: material,
			res:      res,
			class:    req.Class,
			w:        req.Width, h: req.Height, steps: req.Steps,
		}
		c.lru.Add(key, ci, imageSize(&res))
		return &ci.res, nil // the entry is never written again
	})
	// Only joining callers report shared; the executing caller already
	// counted its own hit or miss inside fn.
	if shared {
		c.coalesced.Add(1)
	}
	if err != nil {
		return ImageResult{}, err
	}
	return *v.(*ImageResult), nil
}

func (c *ArtifactCache) imageHit(key, material string, m ImageModel, class device.Class) (ImageResult, bool) {
	v, ok := c.lru.Get(key)
	if !ok {
		return ImageResult{}, false
	}
	ci, ok := v.(*cachedImage)
	if !ok || ci.material != material {
		return ImageResult{}, false // digest collision: generate instead
	}
	res := ci.res
	if ci.class != class {
		gt, ok := m.(GenTimer)
		if !ok {
			return ImageResult{}, false // cannot re-time for this class
		}
		st, err := gt.GenTime(class, ci.w, ci.h, ci.steps)
		if err != nil {
			return ImageResult{}, false
		}
		res.SimTime = st
	}
	return res, true
}

// Text is Image for prose expansion.
func (c *ArtifactCache) Text(m TextModel, req TextRequest) (TextResult, error) {
	req = req.withDefaults()
	material := textMaterial(m.Name(), req)
	key := cacheDigest(material)
	if res, ok := c.textHit(key, material, m, req.Class); ok {
		c.hits.Add(1)
		return res, nil
	}
	fkey := key + "\x00" + strconv.Itoa(int(req.Class))
	v, err, shared := c.flight.Do(fkey, func() (any, error) {
		if res, ok := c.textHit(key, material, m, req.Class); ok {
			c.hits.Add(1)
			return &res, nil
		}
		c.misses.Add(1)
		res, err := m.Expand(req)
		if err != nil {
			return nil, err
		}
		ct := &cachedText{
			material: material,
			res:      res,
			class:    req.Class,
			words:    req.TargetWords,
		}
		c.lru.Add(key, ct, int64(len(res.Text)))
		return &ct.res, nil
	})
	if shared {
		c.coalesced.Add(1)
	}
	if err != nil {
		return TextResult{}, err
	}
	return *v.(*TextResult), nil
}

func (c *ArtifactCache) textHit(key, material string, m TextModel, class device.Class) (TextResult, bool) {
	v, ok := c.lru.Get(key)
	if !ok {
		return TextResult{}, false
	}
	ct, ok := v.(*cachedText)
	if !ok || ct.material != material {
		return TextResult{}, false
	}
	res := ct.res
	if ct.class != class {
		et, ok := m.(ExpandTimer)
		if !ok {
			return TextResult{}, false
		}
		st, err := et.GenTime(class, ct.words)
		if err != nil {
			return TextResult{}, false
		}
		res.SimTime = st
	}
	return res, true
}
