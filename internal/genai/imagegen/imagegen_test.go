package imagegen

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"math"
	"sync"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/genai"
	"sww/internal/metrics"
)

var evalPrompts = []string{
	"A cartoon goldfish swimming in a bright blue bowl",
	"Icelandic landscape near a waterfall in july",
	"Swedish landscape with rolling green fields and red cabins",
	"Large cloud over mexican desert landscape at dusk",
	"Water reflection of clouds in a pond on a sand beach at sunrise",
	"Strawberry field in the german countryside on a clear day",
}

func meanCLIP(t *testing.T, model string, class device.Class) float64 {
	t.Helper()
	m, err := genai.ImageModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i, p := range evalPrompts {
		res, err := m.Generate(genai.ImageRequest{Prompt: p, Class: class, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		sum += metrics.CLIPScoreFromCosine(res.MeasuredAlignment)
	}
	return sum / float64(len(evalPrompts))
}

// TestCLIPCalibration checks Table 1's CLIP column: each model's mean
// measured score must land on the paper's value.
func TestCLIPCalibration(t *testing.T) {
	cases := []struct {
		model  string
		class  device.Class
		target float64
	}{
		{SD21, device.ClassLaptop, 0.19},
		{SD3Medium, device.ClassLaptop, 0.27},
		{SD35Medium, device.ClassLaptop, 0.27},
		{DALLE3, device.ClassWorkstation, 0.32},
	}
	for _, c := range cases {
		got := meanCLIP(t, c.model, c.class)
		if math.Abs(got-c.target) > 0.02 {
			t.Errorf("%s mean CLIP = %.3f, want %.2f±0.02", c.model, got, c.target)
		}
	}
}

// TestCLIPDeviceInvariance checks §6.3.1: CLIP scores are "almost
// identical ... when comparing laptop and workstation-based results".
func TestCLIPDeviceInvariance(t *testing.T) {
	lap := meanCLIP(t, SD3Medium, device.ClassLaptop)
	wkst := meanCLIP(t, SD3Medium, device.ClassWorkstation)
	if math.Abs(lap-wkst) > 0.005 {
		t.Errorf("laptop %.3f vs workstation %.3f", lap, wkst)
	}
}

// TestRandomBaseline checks the paper's unconditioned baseline: "the
// CLIP score of a randomly generated image (no prompt) was 0.09".
func TestRandomBaseline(t *testing.T) {
	m, _ := genai.ImageModelByName(SD3Medium)
	var sum float64
	for i, p := range evalPrompts {
		res, err := m.Generate(genai.ImageRequest{Prompt: "", Class: device.ClassLaptop, Seed: int64(1000 + i)})
		if err != nil {
			t.Fatal(err)
		}
		sum += metrics.CLIPScore(p, decodePNG(t, res.PNG))
	}
	mean := sum / float64(len(evalPrompts))
	if mean > 0.14 || mean < 0.09 {
		t.Errorf("random baseline = %.3f, want ≈0.09-0.13", mean)
	}
}

// TestQualityOrdering: better models must measurably beat worse ones.
func TestQualityOrdering(t *testing.T) {
	sd21Score := meanCLIP(t, SD21, device.ClassLaptop)
	sd3Score := meanCLIP(t, SD3Medium, device.ClassLaptop)
	dalleScore := meanCLIP(t, DALLE3, device.ClassWorkstation)
	if !(sd21Score < sd3Score && sd3Score < dalleScore) {
		t.Errorf("ordering violated: sd2.1=%.3f sd3=%.3f dalle3=%.3f",
			sd21Score, sd3Score, dalleScore)
	}
}

func TestDeterminism(t *testing.T) {
	m, _ := genai.ImageModelByName(SD3Medium)
	req := genai.ImageRequest{Prompt: "a lighthouse at dusk", Seed: 42, Class: device.ClassLaptop}
	a, err := m.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.PNG, b.PNG) {
		t.Error("same seed produced different images")
	}
	c, err := m.Generate(genai.ImageRequest{Prompt: "a lighthouse at dusk", Seed: 43, Class: device.ClassLaptop})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.PNG, c.PNG) {
		t.Error("different seeds produced identical images")
	}
}

// TestStepTimesTable1 checks the time/step columns of Table 1.
func TestStepTimesTable1(t *testing.T) {
	cases := []struct {
		model  *diffusionModel
		laptop float64
		wkst   float64
	}{
		{sd21, 0.18, 0.02},
		{sd3, 0.38, 0.05},
		{sd35, 0.59, 0.06},
	}
	for _, c := range cases {
		lt, err := c.model.StepTime(device.ClassLaptop)
		if err != nil {
			t.Fatal(err)
		}
		wt, err := c.model.StepTime(device.ClassWorkstation)
		if err != nil {
			t.Fatal(err)
		}
		if lt != time.Duration(c.laptop*float64(time.Second)) {
			t.Errorf("%s laptop step = %v, want %vs", c.model.name, lt, c.laptop)
		}
		if wt != time.Duration(c.wkst*float64(time.Second)) {
			t.Errorf("%s workstation step = %v, want %vs", c.model.name, wt, c.wkst)
		}
	}
}

// TestGenTimesTable2 checks that the size-scaled generation times hit
// Table 2's SD 3 Medium measurements at 15 steps.
func TestGenTimesTable2(t *testing.T) {
	cases := []struct {
		w, h  int
		class device.Class
		wantS float64
	}{
		{256, 256, device.ClassLaptop, 7},
		{512, 512, device.ClassLaptop, 19},
		{1024, 1024, device.ClassLaptop, 310},
		{256, 256, device.ClassWorkstation, 1.0},
		{512, 512, device.ClassWorkstation, 1.7},
		{1024, 1024, device.ClassWorkstation, 6.2},
	}
	for _, c := range cases {
		got, err := sd3.GenTime(c.class, c.w, c.h, 15)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Seconds()-c.wantS) > c.wantS*0.01 {
			t.Errorf("%dx%d on %v = %.2fs, want %.2fs", c.w, c.h, c.class, got.Seconds(), c.wantS)
		}
	}
}

// TestStepLinearity checks §6.3.1: "generation time increasing
// linearly with the number of steps".
func TestStepLinearity(t *testing.T) {
	t10, _ := sd3.GenTime(device.ClassLaptop, 224, 224, 10)
	t60, _ := sd3.GenTime(device.ClassLaptop, 224, 224, 60)
	if math.Abs(float64(t60)/float64(t10)-6) > 0.01 {
		t.Errorf("60/10 step ratio = %.3f, want 6", float64(t60)/float64(t10))
	}
}

// TestLaptopMemoryWall checks §6.3.1: on the workstation, time grows
// roughly with pixels; on the laptop 1024² blows up far beyond that.
func TestLaptopMemoryWall(t *testing.T) {
	l512, _ := sd3.GenTime(device.ClassLaptop, 512, 512, 15)
	l1024, _ := sd3.GenTime(device.ClassLaptop, 1024, 1024, 15)
	w512, _ := sd3.GenTime(device.ClassWorkstation, 512, 512, 15)
	w1024, _ := sd3.GenTime(device.ClassWorkstation, 1024, 1024, 15)
	lapRatio := float64(l1024) / float64(l512)
	wkstRatio := float64(w1024) / float64(w512)
	if lapRatio < 3*wkstRatio {
		t.Errorf("laptop blow-up %.1fx vs workstation %.1fx: memory wall not modeled", lapRatio, wkstRatio)
	}
}

func TestSizeFactorMonotonic(t *testing.T) {
	for _, class := range []device.Class{device.ClassLaptop, device.ClassWorkstation, device.ClassMobile} {
		prev := 0.0
		for _, px := range []int{64 * 64, 224 * 224, 256 * 256, 400 * 400, 512 * 512, 768 * 768, 1024 * 1024, 2048 * 2048} {
			f := sizeFactor(class, px)
			if f <= prev {
				t.Errorf("%v: sizeFactor(%d) = %.3f not increasing (prev %.3f)", class, px, f, prev)
			}
			prev = f
		}
	}
	if sizeFactor(device.ClassLaptop, 0) != 1 {
		t.Error("zero pixels should return 1")
	}
}

func TestServerOnlyRejected(t *testing.T) {
	m, _ := genai.ImageModelByName(DALLE3)
	if !m.ServerOnly() {
		t.Fatal("dalle-3 must be server-only")
	}
	_, err := m.Generate(genai.ImageRequest{Prompt: "x", Class: device.ClassLaptop})
	if err == nil {
		t.Error("dalle-3 on a laptop should fail")
	}
	if _, err := m.Generate(genai.ImageRequest{Prompt: "x", Class: device.ClassWorkstation}); err != nil {
		t.Errorf("dalle-3 on the provider side failed: %v", err)
	}
}

func TestImageDimensionsAndNominalBytes(t *testing.T) {
	m, _ := genai.ImageModelByName(SD3Medium)
	for _, sz := range []struct{ w, h, nominal int }{
		{256, 256, 8192},
		{512, 512, 32768},
		{1024, 1024, 131072},
	} {
		res, err := m.Generate(genai.ImageRequest{
			Prompt: "test", Width: sz.w, Height: sz.h, Class: device.ClassWorkstation, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if b := decodePNG(t, res.PNG).Bounds(); b.Dx() != sz.w || b.Dy() != sz.h {
			t.Errorf("image is %dx%d, want %dx%d", b.Dx(), b.Dy(), sz.w, sz.h)
		}
		// Table 2's media sizes: the nominal JPEG equivalents.
		if res.NominalBytes != sz.nominal {
			t.Errorf("nominal bytes = %d, want %d", res.NominalBytes, sz.nominal)
		}
		if len(res.PNG) == 0 {
			t.Error("no PNG emitted")
		}
	}
}

func TestAlignmentReported(t *testing.T) {
	m, _ := genai.ImageModelByName(SD3Medium)
	res, err := m.Generate(genai.ImageRequest{
		Prompt: evalPrompts[0], Class: device.ClassLaptop, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if measured := res.MeasuredAlignment; math.Abs(measured-res.Alignment) > 0.03 {
		t.Errorf("reported alignment %.3f vs measured %.3f", res.Alignment, measured)
	}
}

func TestDefaultsApplied(t *testing.T) {
	m, _ := genai.ImageModelByName(SD21)
	res, err := m.Generate(genai.ImageRequest{Prompt: "x", Class: device.ClassLaptop})
	if err != nil {
		t.Fatal(err)
	}
	if b := decodePNG(t, res.PNG).Bounds(); b.Dx() != 224 || b.Dy() != 224 {
		t.Errorf("default size = %dx%d, want 224x224", b.Dx(), b.Dy())
	}
	// Default 15 steps at 0.18 s/step = 2.7 s.
	if math.Abs(res.SimTime.Seconds()-15*0.18) > 0.01 {
		t.Errorf("default sim time = %v", res.SimTime)
	}
}

// decodePNG is a generated image's pixels, which a result carries
// only as its PNG.
func decodePNG(t testing.TB, data []byte) image.Image {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestMeasuredAlignmentIsEmbedImage: the alignment a generation
// measures while it writes its pixels is, to the bit, the cosine of
// the prompt's text embedding and EmbedImage of the PNG it returns,
// for every registered model, with and without a prompt, at shapes
// with empty feature cells (1×1, 5×3), uneven cells (100×103) and the
// served ones (128², 224²).
func TestMeasuredAlignmentIsEmbedImage(t *testing.T) {
	shapes := []struct{ w, h int }{{1, 1}, {5, 3}, {100, 103}, {128, 128}, {224, 224}}
	for _, name := range genai.ImageModelNames() {
		m, err := genai.ImageModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, prompt := range []string{"", evalPrompts[1]} {
			for i, sh := range shapes {
				res, err := m.Generate(genai.ImageRequest{
					Prompt: prompt, Width: sh.w, Height: sh.h, Seed: int64(i + 1), Class: device.ClassWorkstation})
				if err != nil {
					t.Fatal(err)
				}
				e := metrics.EmbedTextArray(prompt)
				want := metrics.Cosine(e[:], metrics.EmbedImage(decodePNG(t, res.PNG)))
				if res.MeasuredAlignment != want {
					t.Errorf("%s %d×%d prompt %q: measured %v, EmbedImage of the PNG %v",
						name, sh.w, sh.h, prompt, res.MeasuredAlignment, want)
				}
			}
		}
	}
}

// TestConcurrentGenerateMatchesSolo: a generation's plane is its
// scratch's until the PNG is encoded, so goroutines sharing the
// scratch pool must each get the PNG their request makes alone. Run
// under -race, a scratch put back before its encode is a race as well
// as a wrong PNG.
func TestConcurrentGenerateMatchesSolo(t *testing.T) {
	const goroutines, each = 8, 50
	sizes := [][2]int{{16, 16}, {40, 24}, {24, 40}, {64, 64}, {33, 57}}
	req := func(g, i int) genai.ImageRequest {
		sz := sizes[(g+i)%len(sizes)]
		return genai.ImageRequest{
			Prompt: fmt.Sprintf("%s, plate %d of %d", evalPrompts[g%len(evalPrompts)], i, g),
			Width:  sz[0], Height: sz[1], Class: device.ClassWorkstation}
	}
	solo := make([][][]byte, goroutines)
	for g := range solo {
		solo[g] = make([][]byte, each)
		for i := range solo[g] {
			res, err := sd3.Generate(req(g, i))
			if err != nil {
				t.Fatal(err)
			}
			solo[g][i] = res.PNG
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				res, err := sd3.Generate(req(g, i))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(res.PNG, solo[g][i]) {
					t.Errorf("goroutine %d generation %d: PNG differs from the same request generated alone", g, i)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGenerate128 is the workload.LoadPage shape, the generation
// every cold_traditional fetch of the tier benchmark pays for.
func BenchmarkGenerate128(b *testing.B) { benchGenerate(b, 128) }

func BenchmarkGenerate224(b *testing.B) { benchGenerate(b, 224) }

func benchGenerate(b *testing.B, size int) {
	m, _ := genai.ImageModelByName(SD3Medium)
	b.ReportAllocs()
	var pngBytes int
	for i := 0; i < b.N; i++ {
		res, err := m.Generate(genai.ImageRequest{
			Prompt: "benchmark landscape", Width: size, Height: size, Class: device.ClassLaptop, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		pngBytes += len(res.PNG)
	}
	b.ReportMetric(float64(pngBytes)/float64(b.N), "png_B/op")
}
