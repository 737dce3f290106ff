package genai

import (
	"fmt"
	"sync"
	"time"

	"sww/internal/device"
)

// A Pipeline is the preloaded media-generation pipeline of §4.1: the
// HTML parser passes extracted metadata to it "alongside a preloaded
// image generation pipeline ... Since it is a large object, it would
// otherwise need to be repeatedly deleted and reloaded within the
// media generator every time it is invoked."
//
// Preload controls that design choice so the ablation benchmark can
// quantify it: with Preload true (the prototype's choice) the model
// load cost is paid once at construction; with Preload false it is
// added to every invocation.
type Pipeline struct {
	Class   device.Class
	Preload bool

	// Cache, when non-nil, serves repeat generations from a
	// content-addressed artifact cache instead of re-running the
	// model. Generation is deterministic, so cached replay is
	// observationally identical; simulated time and load accounting
	// are unaffected (SimTime is re-derived per device class on
	// cross-class hits).
	Cache *ArtifactCache

	image ImageModel
	text  TextModel

	mu sync.Mutex
	// loadPaid tracks the one-time load cost accounting.
	imageLoaded, textLoaded bool
	// SimLoadTime accumulates simulated model-loading time.
	simLoad time.Duration
}

// NewPipeline builds a preloading pipeline for the device class with
// the named models. Either name may be empty to omit that modality.
func NewPipeline(class device.Class, imageModel, textModel string) (*Pipeline, error) {
	p := &Pipeline{Class: class, Preload: true}
	if imageModel != "" {
		m, err := ImageModelByName(imageModel)
		if err != nil {
			return nil, err
		}
		if m.ServerOnly() && class != device.ClassWorkstation {
			return nil, fmt.Errorf("genai: model %q is server-only and cannot run on %v", imageModel, class)
		}
		p.image = m
	}
	if textModel != "" {
		m, err := TextModelByName(textModel)
		if err != nil {
			return nil, err
		}
		p.text = m
	}
	return p, nil
}

// ImageModel returns the pipeline's image model (nil if none).
func (p *Pipeline) ImageModel() ImageModel { return p.image }

// TextModel returns the pipeline's text model (nil if none).
func (p *Pipeline) TextModel() TextModel { return p.text }

// SimLoadTime returns the accumulated simulated model-load time.
func (p *Pipeline) SimLoadTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.simLoad
}

// GenerateImage runs the image model, accounting for load cost per
// the pipeline's preload policy. The returned result's SimTime covers
// generation only; load time accumulates in SimLoadTime.
func (p *Pipeline) GenerateImage(req ImageRequest) (ImageResult, error) {
	if p.image == nil {
		return ImageResult{}, fmt.Errorf("genai: pipeline has no image model")
	}
	req.Class = p.Class
	p.accountLoad(&p.imageLoaded, p.image.LoadTime(p.Class))
	if p.Cache != nil {
		return p.Cache.Image(p.image, req)
	}
	return p.image.Generate(req)
}

// ExpandText runs the text model with the same load accounting.
func (p *Pipeline) ExpandText(req TextRequest) (TextResult, error) {
	if p.text == nil {
		return TextResult{}, fmt.Errorf("genai: pipeline has no text model")
	}
	req.Class = p.Class
	p.accountLoad(&p.textLoaded, p.text.LoadTime(p.Class))
	if p.Cache != nil {
		return p.Cache.Text(p.text, req)
	}
	return p.text.Expand(req)
}

func (p *Pipeline) accountLoad(loaded *bool, cost time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Preload {
		if !*loaded {
			*loaded = true
			p.simLoad += cost
		}
		return
	}
	// Non-preloading pipelines reload on every invocation (§4.1's
	// rejected design).
	p.simLoad += cost
}
