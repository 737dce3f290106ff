package imagegen

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/metrics"
)

// Model names, registered at init.
const (
	SD21         = "sd2.1-base"
	SD3Medium    = "sd3-medium"
	SD35Medium   = "sd3.5-medium"
	DALLE3       = "dalle-3"
	MobileDiff   = "mobilediffusion" // §7 outlook model, not in the paper's tables
	referencePix = 224 * 224
)

// diffusionModel is a calibrated procedural stand-in for one
// diffusion model of Table 1.
type diffusionModel struct {
	name       string
	serverOnly bool

	// clipTarget is the CLIP score the model achieves (Table 1); the
	// generator plants the corresponding feature alignment.
	clipTarget float64

	// eloLatent is the model's latent arena strength (Table 1's ELO
	// column); the metrics.SimulateArena reproduction uses it.
	eloLatent float64

	// stepTime is seconds per inference step at 224×224 (Table 1).
	stepTime map[device.Class]float64

	// loadTime is the pipeline load cost (§4.1).
	loadTime map[device.Class]time.Duration
}

func (m *diffusionModel) Name() string       { return m.name }
func (m *diffusionModel) ServerOnly() bool   { return m.serverOnly }
func (m *diffusionModel) EloLatent() float64 { return m.eloLatent }

func (m *diffusionModel) LoadTime(class device.Class) time.Duration {
	return m.loadTime[class]
}

// StepTime returns the per-step latency at the 224×224 reference
// size, matching Table 1's time/step columns.
func (m *diffusionModel) StepTime(class device.Class) (time.Duration, error) {
	s, ok := m.stepTime[class]
	if !ok {
		return 0, fmt.Errorf("imagegen: %s cannot run on %v", m.name, class)
	}
	return time.Duration(s * float64(time.Second)), nil
}

// GenTime returns the generation latency for the given size and step
// count on the device: steps × stepTime × sizeFactor(pixels). The
// size factor curves are calibrated against Table 2 (see timing.go).
func (m *diffusionModel) GenTime(class device.Class, w, h, steps int) (time.Duration, error) {
	st, err := m.StepTime(class)
	if err != nil {
		return 0, err
	}
	factor := sizeFactor(class, w*h)
	return time.Duration(float64(steps) * float64(st) * factor), nil
}

func (m *diffusionModel) Generate(req genai.ImageRequest) (*genai.ImageResult, error) {
	req = normalizeImageReq(req)
	simTime, err := m.GenTime(req.Class, req.Width, req.Height, req.Steps)
	if err != nil {
		return nil, err
	}
	sc := scratches.Get().(*scratch)
	seed, target := m.seedAndTarget(sc, req)
	img, planted, emb := sc.synthesize(req.Prompt, req.Width, req.Height, seed, target)
	scratches.Put(sc)
	data, err := EncodePNG(img)
	if err != nil {
		return nil, err
	}
	return &genai.ImageResult{
		Image:           img,
		PNG:             data,
		NominalBytes:    req.Width * req.Height / 8,
		Alignment:       planted,
		SimTime:         simTime,
		Model:           m.name,
		PromptEmbedding: emb,
	}, nil
}

// seedAndTarget resolves a normalized request's synthesis seed and
// the prompt alignment to plant, drawing on sc's generator.
func (m *diffusionModel) seedAndTarget(sc *scratch, req genai.ImageRequest) (seed int64, target float64) {
	seed = req.Seed
	if seed == 0 {
		seed = promptSeed(m.name, req.Prompt)
	}
	// Per-image alignment jitter: adherence varies between
	// generations of the same model, and very low step counts cost a
	// little adherence (the paper: "only minor changes to CLIP score"
	// across 10–60 steps).
	sc.rng.Seed(seed ^ 0x5ee1)
	target = metrics.AlignmentForCLIP(m.clipTarget)
	target += sc.rng.NormFloat64() * 0.015
	if req.Steps < 10 {
		target -= 0.02 * float64(10-req.Steps) / 10
	}
	target = math.Max(0, math.Min(target, 0.99))
	if req.Prompt == "" {
		target = 0
	}
	return seed, target
}

func normalizeImageReq(r genai.ImageRequest) genai.ImageRequest {
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

func promptSeed(model, prompt string) int64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	h.Write([]byte{0})
	h.Write([]byte(prompt))
	return int64(h.Sum64())
}

// Models returns the registered models as their concrete calibrated
// type, for experiment code that needs the calibration values.
func Models() []*diffusionModel {
	return []*diffusionModel{sd21, sd3, sd35, dalle3}
}

var (
	sd21 = &diffusionModel{
		name:       SD21,
		clipTarget: 0.19,
		eloLatent:  688,
		stepTime: map[device.Class]float64{
			device.ClassLaptop:      0.18,
			device.ClassWorkstation: 0.02,
			device.ClassMobile:      0.45,
		},
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      4 * time.Second,
			device.ClassWorkstation: 1 * time.Second,
			device.ClassMobile:      9 * time.Second,
		},
	}
	sd3 = &diffusionModel{
		name:       SD3Medium,
		clipTarget: 0.27,
		eloLatent:  895,
		stepTime: map[device.Class]float64{
			device.ClassLaptop:      0.38,
			device.ClassWorkstation: 0.05,
			device.ClassMobile:      0.95,
		},
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      8 * time.Second,
			device.ClassWorkstation: 2 * time.Second,
			device.ClassMobile:      18 * time.Second,
		},
	}
	sd35 = &diffusionModel{
		name:       SD35Medium,
		clipTarget: 0.27,
		eloLatent:  927,
		stepTime: map[device.Class]float64{
			device.ClassLaptop:      0.59,
			device.ClassWorkstation: 0.06,
			device.ClassMobile:      1.50,
		},
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      10 * time.Second,
			device.ClassWorkstation: 2500 * time.Millisecond,
			device.ClassMobile:      22 * time.Second,
		},
	}
	// dalle3 is reachable only as a provider-side service (Table 1
	// lists no on-device time for it); its step time models the
	// provider's serving hardware, addressed as ClassWorkstation.
	dalle3 = &diffusionModel{
		name:       DALLE3,
		serverOnly: true,
		clipTarget: 0.32,
		eloLatent:  923,
		stepTime: map[device.Class]float64{
			device.ClassWorkstation: 0.04,
		},
		loadTime: map[device.Class]time.Duration{},
	}
	// mobileDiff models the §7 trajectory: distilled on-device
	// generation (MobileDiffusion-class: "instant text-to-image ...
	// on mobile devices"). Not part of the paper's measured tables.
	mobileDiff = &diffusionModel{
		name:       MobileDiff,
		clipTarget: 0.24,
		eloLatent:  810,
		stepTime: map[device.Class]float64{
			device.ClassLaptop:      0.05,
			device.ClassWorkstation: 0.01,
			device.ClassMobile:      0.12,
		},
		loadTime: map[device.Class]time.Duration{
			device.ClassLaptop:      2 * time.Second,
			device.ClassWorkstation: 500 * time.Millisecond,
			device.ClassMobile:      4 * time.Second,
		},
	}
)

func init() {
	genai.RegisterImageModel(sd21)
	genai.RegisterImageModel(sd3)
	genai.RegisterImageModel(sd35)
	genai.RegisterImageModel(dalle3)
	genai.RegisterImageModel(mobileDiff)
}
