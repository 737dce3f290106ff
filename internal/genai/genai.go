// Package genai defines the media-generation framework of the SWW
// prototype (paper §4.1): model interfaces for text-to-image and
// text-to-text generation, a model registry, and the preloaded
// generation pipeline that the paper's HTML parser hands metadata to.
//
// Concrete models live in internal/genai/imagegen and
// internal/genai/textgen and register themselves at init time; import
// them for side effects (the same pattern gopacket uses for layer
// types):
//
//	import (
//	    _ "sww/internal/genai/imagegen"
//	    _ "sww/internal/genai/textgen"
//	)
//
// Substitution note (see DESIGN.md): the paper runs Stable Diffusion
// via Diffusers and LLMs via Ollama. The models here are calibrated
// deterministic procedural generators; their timing tables reproduce
// the paper's measurements, and the content they emit carries
// prompt-derived features so that internal/metrics scores it the way
// CLIP/SBERT scored the originals.
package genai

import (
	"fmt"
	"hash/fnv"
	"image"
	"sort"
	"sync"
	"time"

	"sww/internal/device"
	"sww/internal/metrics"
)

// An ImageRequest asks a text-to-image model for one image.
type ImageRequest struct {
	// Prompt describes the desired image. An empty prompt produces an
	// unconditioned (random) image, the paper's CLIP baseline.
	Prompt string

	// Width and Height are pixel dimensions. Zero means 224×224, the
	// evaluation size of Table 1.
	Width, Height int

	// Steps is the diffusion step count. Zero means 15 (§6.3.1).
	Steps int

	// Seed makes generation reproducible. Zero derives a seed from
	// the prompt.
	Seed int64

	// Class selects the device whose calibrated timing applies.
	Class device.Class
}

func (r ImageRequest) withDefaults() ImageRequest {
	if r.Width == 0 {
		r.Width = 224
	}
	if r.Height == 0 {
		r.Height = 224
	}
	if r.Steps == 0 {
		r.Steps = 15
	}
	return r
}

// An ImageResult is a generated image plus its simulated cost.
type ImageResult struct {
	// Image is the generated picture: one byte per pixel indexing a
	// palette the generator may share between images, so treat both
	// as read-only.
	Image *image.Paletted

	// PNG is the encoded form written to the client's asset store.
	PNG []byte

	// NominalBytes is the size the equivalent JPEG-encoded photo
	// would occupy (w·h/8, which reproduces the paper's 8 KiB /
	// 32 KiB / 128 KiB small/medium/large figures). Compression
	// accounting uses this, since the paper compares against photos.
	NominalBytes int

	// Alignment is the raw prompt–image feature alignment achieved
	// (the quantity the CLIP score measures).
	Alignment float64

	// SimTime is the generation latency this request would have had
	// on the requested device class, from the calibrated tables.
	SimTime time.Duration

	// Model is the generating model's name.
	Model string

	// PromptEmbedding is the prompt's text embedding
	// (metrics.EmbedTextArray) computed during generation, threaded
	// through so the §7 verification path need not re-embed the
	// prompt. All zeros when the model did not compute it.
	PromptEmbedding [metrics.EmbedDim]float64
}

// A TextRequest asks a text-to-text model to expand bullet points
// into prose (§2.1: "text ... turned into bullet points that can be
// used in a prompt to generate the relevant text").
type TextRequest struct {
	// Bullets are the content points to expand.
	Bullets []string

	// TargetWords is the requested output length. Zero means 100.
	TargetWords int

	// Seed makes generation reproducible. Zero derives one from the
	// bullets.
	Seed int64

	// Class selects the device whose calibrated timing applies.
	Class device.Class
}

func (r TextRequest) withDefaults() TextRequest {
	if r.TargetWords == 0 {
		r.TargetWords = 100
	}
	return r
}

// A TextResult is expanded prose plus its simulated cost.
type TextResult struct {
	Text    string
	Words   int
	SimTime time.Duration
	Model   string
}

// An ImageModel generates images from prompts.
type ImageModel interface {
	// Name is the registry key, e.g. "sd3-medium".
	Name() string

	// ServerOnly reports models that cannot run on end-user devices
	// (DALLE-3 in the paper: accessible only as a provider service).
	ServerOnly() bool

	// LoadTime is the cost of loading the pipeline into memory on the
	// given device (§4.1 preloading).
	LoadTime(class device.Class) time.Duration

	// Generate produces an image.
	Generate(req ImageRequest) (ImageResult, error)
}

// A TextModel expands prompts into prose.
type TextModel interface {
	Name() string
	LoadTime(class device.Class) time.Duration
	Expand(req TextRequest) (TextResult, error)
}

var (
	registryMu  sync.RWMutex
	imageModels = map[string]ImageModel{}
	textModels  = map[string]TextModel{}
)

// RegisterImageModel adds a model to the registry. It panics on
// duplicate names (registration happens at init time).
func RegisterImageModel(m ImageModel) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := imageModels[m.Name()]; dup {
		panic("genai: duplicate image model " + m.Name())
	}
	imageModels[m.Name()] = m
}

// RegisterTextModel adds a model to the registry.
func RegisterTextModel(m TextModel) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := textModels[m.Name()]; dup {
		panic("genai: duplicate text model " + m.Name())
	}
	textModels[m.Name()] = m
}

// ImageModelByName looks a model up.
func ImageModelByName(name string) (ImageModel, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := imageModels[name]
	if !ok {
		return nil, fmt.Errorf("genai: unknown image model %q", name)
	}
	return m, nil
}

// TextModelByName looks a model up.
func TextModelByName(name string) (TextModel, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	m, ok := textModels[name]
	if !ok {
		return nil, fmt.Errorf("genai: unknown text model %q", name)
	}
	return m, nil
}

// ModelID derives the 32-bit identifier a model name carries in the
// SETTINGS_GEN_IMAGE_MODEL / SETTINGS_GEN_TEXT_MODEL parameters (§7
// model negotiation). FNV-1a over the registry name: stable across
// endpoints that agree on model naming, and opaque on the wire.
func ModelID(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	id := h.Sum32()
	if id == 0 {
		id = 1 // zero means "not advertised"
	}
	return id
}

// ImageModelByID resolves an advertised model identifier against the
// local registry.
func ImageModelByID(id uint32) (ImageModel, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	for name, m := range imageModels {
		if ModelID(name) == id {
			return m, true
		}
	}
	return nil, false
}

// TextModelByID resolves an advertised model identifier against the
// local registry.
func TextModelByID(id uint32) (TextModel, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	for name, m := range textModels {
		if ModelID(name) == id {
			return m, true
		}
	}
	return nil, false
}

// ImageModelNames returns registered image model names, sorted.
func ImageModelNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(imageModels))
	for n := range imageModels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TextModelNames returns registered text model names, sorted.
func TextModelNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(textModels))
	for n := range textModels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
