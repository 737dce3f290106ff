package imagegen

import (
	"math"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/metrics"
)

func TestUpscaleDimensions(t *testing.T) {
	m, _ := genai.ImageModelByName(SD3Medium)
	res, err := m.Generate(genai.ImageRequest{
		Prompt: "test", Width: 128, Height: 96, Class: device.ClassWorkstation, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DefaultUpscaler.Upscale(decodePNG(t, res.PNG), 4, 1, device.ClassLaptop)
	if err != nil {
		t.Fatal(err)
	}
	if b := out.Bounds(); b.Dx() != 512 || b.Dy() != 384 {
		t.Errorf("output %dx%d, want 512x384", b.Dx(), b.Dy())
	}
}

// TestUpscaleSubSecond checks §2.2: "content upscaling is also
// usually faster than content generation, with sub-second inference".
func TestUpscaleSubSecond(t *testing.T) {
	// 512² output on the workstation.
	ut, err := DefaultUpscaler.UpscaleTime(device.ClassWorkstation, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if ut >= time.Second {
		t.Errorf("upscale = %v, want sub-second", ut)
	}
	// And much faster than generating the same size.
	gt, err := sd3.GenTime(device.ClassWorkstation, 512, 512, 15)
	if err != nil {
		t.Fatal(err)
	}
	if float64(gt)/float64(ut) < 10 {
		t.Errorf("generation %v only %.1fx slower than upscaling %v",
			gt, float64(gt)/float64(ut), ut)
	}
}

// TestUpscalePreservesAlignment: interpolation keeps the 8×8 cell
// statistics, so the upscaled image must score the same CLIP as its
// source — the semantic-preservation property of real SR models.
func TestUpscalePreservesAlignment(t *testing.T) {
	const prompt = "a lighthouse on a rocky coast at dusk"
	m, _ := genai.ImageModelByName(SD3Medium)
	res, err := m.Generate(genai.ImageRequest{
		Prompt: prompt, Width: 128, Height: 128, Class: device.ClassWorkstation, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := decodePNG(t, res.PNG)
	before := metrics.CLIPScore(prompt, src)
	out, _, err := DefaultUpscaler.Upscale(src, 4, 3, device.ClassWorkstation)
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.CLIPScore(prompt, out)
	if math.Abs(before-after) > 0.03 {
		t.Errorf("CLIP before %.3f vs after %.3f: upscaling destroyed semantics", before, after)
	}
}

func TestUpscaleAddsDetail(t *testing.T) {
	m, _ := genai.ImageModelByName(SD3Medium)
	res, _ := m.Generate(genai.ImageRequest{
		Prompt: "texture test", Width: 64, Height: 64, Class: device.ClassWorkstation, Seed: 4})
	out, _, err := DefaultUpscaler.Upscale(decodePNG(t, res.PNG), 4, 4, device.ClassWorkstation)
	if err != nil {
		t.Fatal(err)
	}
	// A pure bilinear blow-up of a 4x factor makes 4x4 blocks almost
	// constant; detail synthesis must add in-block variation in
	// contrasty regions. Measure mean absolute neighbor difference.
	var diff, n float64
	b := out.Bounds()
	for y := 0; y < b.Dy(); y += 3 {
		for x := 1; x < b.Dx(); x += 3 {
			r1, _, _, _ := out.At(x, y).RGBA()
			r0, _, _, _ := out.At(x-1, y).RGBA()
			diff += math.Abs(float64(r1>>8) - float64(r0>>8))
			n++
		}
	}
	if diff/n < 0.5 {
		t.Errorf("mean neighbor difference %.3f: no synthesized detail", diff/n)
	}
}

func TestUpscaleErrors(t *testing.T) {
	m, _ := genai.ImageModelByName(SD3Medium)
	res, _ := m.Generate(genai.ImageRequest{
		Prompt: "x", Width: 64, Height: 64, Class: device.ClassWorkstation, Seed: 5})
	if _, _, err := DefaultUpscaler.Upscale(decodePNG(t, res.PNG), 1, 1, device.ClassLaptop); err == nil {
		t.Error("factor 1 should fail")
	}
	if _, err := DefaultUpscaler.UpscaleTime(device.Class(99), 512, 512); err == nil {
		t.Error("unknown class should fail")
	}
}

func BenchmarkUpscale128to512(b *testing.B) {
	m, _ := genai.ImageModelByName(SD3Medium)
	res, err := m.Generate(genai.ImageRequest{
		Prompt: "bench", Width: 128, Height: 128, Class: device.ClassWorkstation, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := decodePNG(b, res.PNG)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DefaultUpscaler.Upscale(src, 4, int64(i), device.ClassWorkstation); err != nil {
			b.Fatal(err)
		}
	}
}
