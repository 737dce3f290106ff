package core

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/html"
	"sww/internal/http2"
)

func goldfishDiv(t *testing.T) GeneratedContent {
	t.Helper()
	return GeneratedContent{
		Type: ContentImage,
		Meta: Metadata{
			Prompt: "a cartoon goldfish with large friendly eyes swimming in a round glass bowl",
			Name:   "goldfish",
			Width:  256,
			Height: 256,
		},
	}
}

func TestGeneratedContentRoundTrip(t *testing.T) {
	gc := goldfishDiv(t)
	div, err := gc.Div()
	if err != nil {
		t.Fatal(err)
	}
	// Serialize to HTML and back: the metadata must survive.
	out := html.RenderString(div)
	doc := html.Parse(out)
	divs := doc.ByClass(GeneratedClass)
	if len(divs) != 1 {
		t.Fatalf("%d generated divs", len(divs))
	}
	got, err := ParseGeneratedDiv(divs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != gc.Type || got.Meta.Prompt != gc.Meta.Prompt ||
		got.Meta.Width != 256 || got.Meta.Name != "goldfish" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestGeneratedContentValidation(t *testing.T) {
	bad := []GeneratedContent{
		{Type: ContentImage},                         // no prompt
		{Type: ContentText},                          // no bullets/prompt
		{Type: "video", Meta: Metadata{Prompt: "x"}}, // unsupported type
	}
	for _, gc := range bad {
		if _, err := gc.Div(); err == nil {
			t.Errorf("%+v: want validation error", gc)
		}
	}
}

func TestParseGeneratedDivErrors(t *testing.T) {
	for _, src := range []string{
		`<div class="generated-content"></div>`,
		`<div class="generated-content" content-type="img"></div>`,
		`<div class="generated-content" content-type="img" metadata="not json"></div>`,
		`<div class="generated-content" content-type="img" metadata="{}"></div>`,
	} {
		doc := html.Parse(src)
		n := doc.ByClass(GeneratedClass)[0]
		if _, err := ParseGeneratedDiv(n); err == nil {
			t.Errorf("%s: want parse error", src)
		}
	}
	if _, err := ParseGeneratedDiv(html.NewText("x")); err == nil {
		t.Error("text node should not parse as generated div")
	}
}

func TestContentSizeAccounting(t *testing.T) {
	// The paper's worst case: 400 B prompt + 20 B name + 4 B each
	// height and width = 428 B.
	gc := GeneratedContent{
		Type: ContentImage,
		Meta: Metadata{
			Prompt: strings.Repeat("p", 400),
			Name:   strings.Repeat("n", 20),
			Width:  1024, Height: 1024,
		},
	}
	if got := gc.ContentSize(); got != 428 {
		t.Errorf("worst-case image metadata = %d, want 428", got)
	}
	txt := GeneratedContent{
		Type: ContentText,
		Meta: Metadata{Name: "ab", Bullets: []string{"1234", "567"}},
	}
	if got := txt.ContentSize(); got != 2+4+7 {
		t.Errorf("text metadata = %d, want 13", got)
	}
	// The JSON wire size is necessarily larger than the content size.
	if gc.WireSize() <= gc.ContentSize() {
		t.Error("wire size should exceed content size")
	}
}

// TestFigure1 reproduces Figure 1: a generated-content div before
// processing becomes a pointer to the generated image after.
func TestFigure1(t *testing.T) {
	gc := goldfishDiv(t)
	div, err := gc.Div()
	if err != nil {
		t.Fatal(err)
	}
	doc := html.Parse(`<html><body></body></html>`)
	doc.ByTag("body")[0].AppendChild(div.Clone())

	before := html.RenderString(doc)
	if !strings.Contains(before, "goldfish") || !strings.Contains(before, GeneratedClass) {
		t.Fatalf("before-state missing prompt div: %s", before)
	}

	proc, err := NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	assets, report, err := proc.Process(doc)
	if err != nil {
		t.Fatal(err)
	}
	after := html.RenderString(doc)
	if strings.Contains(after, GeneratedClass+`"`) && strings.Contains(after, "metadata") {
		t.Error("prompt div survived processing")
	}
	imgs := doc.ByTag("img")
	if len(imgs) != 1 {
		t.Fatalf("%d <img> after processing", len(imgs))
	}
	src, _ := imgs[0].AttrValue("src")
	if !strings.HasPrefix(src, "/generated/") || !strings.Contains(src, "goldfish") {
		t.Errorf("src = %q", src)
	}
	if _, ok := assets[src]; !ok {
		t.Errorf("no asset for %q", src)
	}
	if len(report.Items) != 1 || report.Items[0].Type != ContentImage {
		t.Errorf("report = %+v", report)
	}
	if report.SimGenTime <= 0 || report.EnergyWh <= 0 {
		t.Error("missing cost accounting")
	}
}

func TestProcessorTextExpansion(t *testing.T) {
	doc := html.Parse(`<html><body></body></html>`)
	gc := GeneratedContent{
		Type: ContentText,
		Meta: Metadata{
			Name:    "para",
			Bullets: []string{"solar capacity doubled", "grid storage lags behind"},
			Words:   120,
		},
	}
	div, err := gc.Div()
	if err != nil {
		t.Fatal(err)
	}
	doc.ByTag("body")[0].AppendChild(div)

	proc, err := NewPageProcessor(device.Laptop, "", textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := proc.Process(doc)
	if err != nil {
		t.Fatal(err)
	}
	ps := doc.ByTag("p")
	if len(ps) != 1 {
		t.Fatalf("%d <p>", len(ps))
	}
	text := ps[0].Text()
	if !strings.Contains(text, "solar") && !strings.Contains(text, "storage") {
		t.Errorf("expansion lost bullet content: %q", text)
	}
	if report.Items[0].Words < 90 || report.Items[0].Words > 150 {
		t.Errorf("words = %d, want ≈120", report.Items[0].Words)
	}
}

func TestProcessorMalformedPlaceholder(t *testing.T) {
	doc := html.Parse(`<div class="generated-content" content-type="img" metadata="{bad"></div>`)
	proc, err := NewPageProcessor(device.Laptop, imagegen.SD3Medium, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := proc.Process(doc); err == nil {
		t.Error("malformed metadata should fail processing")
	}
}

func TestFindPlaceholdersSkipsBroken(t *testing.T) {
	doc := html.Parse(`
		<div class="generated-content" content-type="img" metadata='{"prompt":"ok","name":"a"}'></div>
		<div class="generated-content" content-type="img" metadata='broken'></div>`)
	phs, errs := FindPlaceholders(doc)
	if len(phs) != 1 || len(errs) != 1 {
		t.Errorf("placeholders=%d errs=%d, want 1/1", len(phs), len(errs))
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"Goldfish Bowl": "goldfish-bowl",
		"../../etc":     "..-..-etc",
		"":              "unnamed",
		"ok-name_1.png": "ok-name_1.png",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestGeneratedPathsPerPage: names that sanitize alike ("Pic" and
// "pic", two unnamed images) still give every generated image of a page
// an asset of its own, in the document pass and the compiled one alike;
// a later clash takes the first suffix no name on the page claims, and
// a name that clashes with none keeps its path. Each page's paths sit
// under its own path, so no two pages share one, and the root page's
// are the page-less pass's.
func TestGeneratedPathsPerPage(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><body>")
	for i, name := range []string{"Pic", "pic", "", "", "pic-2"} {
		gc := GeneratedContent{Type: ContentImage, Meta: Metadata{
			Prompt: "a harbor at dawn, view " + string(rune('a'+i)),
			Name:   name, Width: 32, Height: 32,
		}}
		div, err := gc.Div()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(html.RenderString(div))
	}
	b.WriteString("</body></html>")
	names := []string{"pic.png", "pic-3.png", "unnamed.png", "unnamed-2.png", "pic-2.png"}

	proc, err := NewPageProcessor(device.Laptop, imagegen.SD21, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	pageless := html.Parse(b.String())
	if _, _, err := proc.Process(pageless); err != nil {
		t.Fatal(err)
	}
	owner := map[string]string{} // every asset path to its page
	for _, pg := range []struct{ path, dir string }{
		{"/", "/generated/"},
		{"/a", "/generated/a/"},
		{"/a/b", "/generated/a/b/"},
		{"/x.png", "/generated/x.png/"},
	} {
		doc := html.Parse(b.String())
		docAssets, _, err := proc.ProcessContext(context.Background(), pg.path, doc)
		if err != nil {
			t.Fatal(err)
		}
		body, assets, _, err := traditional(proc, &Page{Path: pg.path, Doc: html.Parse(b.String())})
		if err != nil {
			t.Fatal(err)
		}
		for pass, out := range map[string]struct {
			doc    *html.Node
			assets map[string][]byte
		}{"document": {doc, docAssets}, "compiled": {html.Parse(string(body)), assets}} {
			imgs := out.doc.ByTag("img")
			if len(imgs) != len(names) || len(out.assets) != len(names) {
				t.Fatalf("%s, %s pass: %d images, %d assets, want %d of each", pg.path, pass, len(imgs), len(out.assets), len(names))
			}
			seen := map[string]bool{}
			for i, img := range imgs {
				src, _ := img.AttrValue("src")
				if want := pg.dir + names[i]; src != want {
					t.Errorf("%s, %s pass: image %d at %q, want %q", pg.path, pass, i, src, want)
				}
				data := string(out.assets[src])
				if data == "" || seen[data] {
					t.Errorf("%s, %s pass: image %d's asset %q is missing or another image's", pg.path, pass, i, src)
				}
				seen[data] = true
				if o, ok := owner[src]; ok && o != pg.path {
					t.Errorf("pages %s and %s share %q", o, pg.path, src)
				}
				owner[src] = pg.path
			}
		}
		if string(body) != html.RenderString(doc) {
			t.Errorf("%s: compiled body differs from the processed document", pg.path)
		}
		if pg.path == "/" && html.RenderString(doc) != html.RenderString(pageless) {
			t.Error("the root page's document differs from the page-less pass's")
		}
	}
}

func TestAssetPaths(t *testing.T) {
	doc := html.Parse(`<img src="/a.png"><img src="/b.png"><img src="/a.png"><img src="https://cdn.example/x.png"><img>`)
	got := AssetPaths(doc)
	if len(got) != 2 || got[0] != "/a.png" || got[1] != "/b.png" {
		t.Errorf("paths = %v", got)
	}
}

func TestVideoNegotiation(t *testing.T) {
	// §3.2: 60→30 fps halves data; 4K→HD saves 2.3×, 7 GB/h → 3 GB/h.
	full := http2.GenBasic | http2.GenVideoFrameRate | http2.GenVideoResolution
	neg := NegotiateVideo(Video4K60, full)
	if neg.FPS != 30 {
		t.Errorf("fps = %d, want 30", neg.FPS)
	}
	factor := VideoSavingsFactor(Video4K60, full)
	if factor < 4.5 || factor > 4.8 {
		t.Errorf("combined savings = %.2fx, want ≈4.67x (2 × 2.33)", factor)
	}
	// Resolution-only.
	resAbility := http2.GenBasic | http2.GenVideoResolution
	resOnly := VideoSavingsFactor(Video4K30, resAbility)
	if math.Abs(resOnly-ResolutionSavings) > 0.01 {
		t.Errorf("4K→HD = %.2fx, want 2.33x", resOnly)
	}
	if got := NegotiateVideo(Video4K30, resAbility); math.Abs(got.GBPerHour-3.0) > 0.01 {
		t.Errorf("negotiated rate = %.2f GB/h, want 3.0", got.GBPerHour)
	}
	// No ability, no savings.
	if VideoSavingsFactor(Video4K60, 0) != 1 {
		t.Error("no ability should not save data")
	}
}

func TestTraditionalDoc(t *testing.T) {
	gc := goldfishDiv(t)
	div, _ := gc.Div()
	doc := html.Parse(`<html><body></body></html>`)
	doc.ByTag("body")[0].AppendChild(div)
	p := &Page{
		Path: "/p",
		Doc:  doc,
		Originals: []Asset{
			{Path: "/original/goldfish", ContentType: "image/jpeg", Data: []byte("jpegbytes")},
		},
	}
	trad, err := p.TraditionalDoc()
	if err != nil {
		t.Fatal(err)
	}
	imgs := trad.ByTag("img")
	if len(imgs) != 1 {
		t.Fatalf("%d <img>", len(imgs))
	}
	if src, _ := imgs[0].AttrValue("src"); src != "/original/goldfish" {
		t.Errorf("src = %q", src)
	}
	// The SWW doc itself must be untouched.
	if len(p.Doc.ByClass(GeneratedClass)) != 1 {
		t.Error("TraditionalDoc mutated the SWW form")
	}
	// What the server sends is the same page, written from the compiled
	// holes.
	if body, err := p.originalsBody(); err != nil || string(body) != html.RenderString(trad) {
		t.Errorf("originalsBody = %q, %v; want %q", body, err, html.RenderString(trad))
	}
	// Missing originals fail.
	p2 := &Page{Path: "/p2", Doc: doc.Clone()}
	if _, err := p2.TraditionalDoc(); err == nil {
		t.Error("missing originals should fail")
	}
	if _, err := p2.originalsBody(); err == nil {
		t.Error("missing originals should fail the compiled page too")
	}
}

// TestMetadataQuickRoundTrip: any metadata the validator accepts must
// survive the div → HTML → parse round trip byte-identically.
func TestMetadataQuickRoundTrip(t *testing.T) {
	f := func(prompt, name string, w, h uint16, words uint8) bool {
		gc := GeneratedContent{
			Type: ContentImage,
			Meta: Metadata{
				Prompt: "p" + prompt, // never empty
				Name:   name,
				Width:  int(w) % (MaxDimension + 1), // within validator bounds
				Height: int(h) % (MaxDimension + 1),
				Words:  int(words),
			},
		}
		div, err := gc.Div()
		if err != nil {
			return false
		}
		doc := html.Parse(html.RenderString(div))
		divs := doc.ByClass(GeneratedClass)
		if len(divs) != 1 {
			return false
		}
		got, err := ParseGeneratedDiv(divs[0])
		if err != nil {
			return false
		}
		return got.Type == gc.Type &&
			got.Meta.Prompt == gc.Meta.Prompt &&
			got.Meta.Name == gc.Meta.Name &&
			got.Meta.Width == gc.Meta.Width &&
			got.Meta.Height == gc.Meta.Height &&
			got.Meta.Words == gc.Meta.Words
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
