package core

// Equivalence tests for the parallel placeholder engine: whatever the
// worker count, a Process pass must be observably identical to the
// sequential pass — assets, report, rendered document, budget
// cut-off, and cancellation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"image"
	"image/png"
	"reflect"
	"sync"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/html"
	"sww/internal/http2"
)

// mixedPage builds a page of image and text placeholders with
// distinct prompts.
func mixedPage(t *testing.T, images, texts int) string {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("<html><body>")
	for i := 0; i < images; i++ {
		gc := GeneratedContent{
			Type: ContentImage,
			Meta: Metadata{
				Prompt: fmt.Sprintf("parallel test image %d, a lighthouse at dusk", i),
				Name:   fmt.Sprintf("par-img-%d", i),
				Width:  64, Height: 64,
			},
		}
		div, err := gc.Div()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(html.RenderString(div))
	}
	for i := 0; i < texts; i++ {
		gc := GeneratedContent{
			Type: ContentText,
			Meta: Metadata{
				Name:    fmt.Sprintf("par-txt-%d", i),
				Bullets: []string{fmt.Sprintf("point %d about harbors", i), "tides rise", "ships depart"},
				Words:   60,
			},
		}
		div, err := gc.Div()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(html.RenderString(div))
	}
	b.WriteString("</body></html>")
	return b.String()
}

func newParallelProc(t *testing.T, workers int) *PageProcessor {
	t.Helper()
	proc, err := NewPageProcessor(device.Laptop, imagegen.SD21, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	proc.Workers = workers
	return proc
}

type procOutcome struct {
	assets map[string][]byte
	report *ProcessReport
	html   string
	err    error

	// body and bodyErr are the server's traditional pass over the same
	// page, written from its compiled holes.
	body    string
	bodyErr error
}

// procPage is the path of the page the equivalence tests process.
const procPage = "/p"

func runProc(t *testing.T, workers int, page string, budget time.Duration) procOutcome {
	t.Helper()
	proc := newParallelProc(t, workers)
	proc.SimBudget = budget
	doc := html.Parse(page)
	assets, report, err := proc.ProcessContext(context.Background(), procPage, doc)
	body, _, _, bodyErr := traditional(proc, &Page{Path: procPage, Doc: html.Parse(page)})
	return procOutcome{assets: assets, report: report, html: html.RenderString(doc), err: err,
		body: string(body), bodyErr: bodyErr}
}

var workerCounts = []int{1, 2, 8}

// traditional runs pp's server-side pass over p and returns it as the
// document pass returns its own: body, assets by path, report.
func traditional(pp *PageProcessor, p *Page) (body []byte, assets map[string][]byte, report *ProcessReport, err error) {
	st, err := pp.processTraditional(context.Background(), p)
	if err != nil {
		return nil, nil, nil, err
	}
	assets = make(map[string][]byte, len(st.assetPaths))
	for k, path := range st.assetPaths {
		assets[path] = st.assets[k].asset
	}
	return st.body, assets, &st.report, nil
}

func TestParallelEquivalence(t *testing.T) {
	page := mixedPage(t, 5, 2)
	base := runProc(t, 1, page, 0)
	if base.err != nil {
		t.Fatal(base.err)
	}
	if len(base.report.Items) != 7 {
		t.Fatalf("%d items", len(base.report.Items))
	}
	if base.bodyErr != nil || base.body != base.html {
		t.Fatalf("compiled traditional body differs from the processed document (%v)", base.bodyErr)
	}
	for _, w := range workerCounts[1:] {
		got := runProc(t, w, page, 0)
		if got.err != nil {
			t.Fatalf("workers=%d: %v", w, got.err)
		}
		if got.body != base.html {
			t.Errorf("workers=%d: compiled traditional body differs from the sequential document (%v)", w, got.bodyErr)
		}
		if len(got.assets) != len(base.assets) {
			t.Fatalf("workers=%d: %d assets, want %d", w, len(got.assets), len(base.assets))
		}
		for path, data := range base.assets {
			if !bytes.Equal(got.assets[path], data) {
				t.Errorf("workers=%d: asset %s differs from sequential", w, path)
			}
		}
		if !reflect.DeepEqual(got.report, base.report) {
			t.Errorf("workers=%d: report differs:\n got %+v\nwant %+v", w, got.report, base.report)
		}
		if got.html != base.html {
			t.Errorf("workers=%d: rendered document differs from sequential", w)
		}
	}
}

// TestParallelEquivalenceShapes: for the shapes mixedPage lacks — an
// image failing §7 verification, an upscale, a placeholder nested in
// another — the compiled traditional pass writes, byte for byte, the
// page the document pass renders at every worker count, with the same
// assets and report items.
func TestParallelEquivalenceShapes(t *testing.T) {
	div := func(gc GeneratedContent, inner ...GeneratedContent) string {
		d, err := gc.Div()
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inner {
			n, err := in.Div()
			if err != nil {
				t.Fatal(err)
			}
			d.AppendChild(n)
		}
		return html.RenderString(d)
	}
	img := func(name string, expect float64) GeneratedContent {
		return GeneratedContent{Type: ContentImage, Meta: Metadata{
			Prompt: "a lighthouse at dusk, " + name, Name: name, Width: 32, Height: 32,
			ExpectedAlignment: expect,
		}}
	}
	txt := GeneratedContent{Type: ContentText, Meta: Metadata{
		Name: "inner-txt", Bullets: []string{"tides <rise> & fall"}, Words: 20,
	}}
	up := GeneratedContent{Type: ContentUpscale, Meta: Metadata{Name: "up", Src: "/low.png", Scale: 2}}
	shapes := []struct {
		name, page, mark string
	}{
		{"verify-failed", div(img("unattainable", 0.999)) + div(img("attainable", 0)), `data-sww-verify="failed"`},
		{"upscale", "<p>before</p>" + div(up) + div(img("beside", 0)), `class="sww-upscaled"`},
		{"nested", "<section>" + div(img("outer", 0), img("inner-img", 0), txt) + "</section>" + div(txt), `src="/generated/p/outer.png"`},
	}
	raw := sourcePNG(t)
	for _, sh := range shapes {
		page := "<html><body>" + sh.page + "</body></html>"
		for _, w := range workerCounts {
			proc := newParallelProc(t, w)
			proc.FetchAsset = func(string) ([]byte, error) { return raw, nil }
			doc := html.Parse(page)
			assets, report, err := proc.ProcessContext(context.Background(), procPage, doc)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", sh.name, w, err)
			}
			body, tAssets, tReport, err := traditional(proc, &Page{Path: procPage, Doc: html.Parse(page)})
			if err != nil {
				t.Fatalf("%s, workers=%d: traditional pass: %v", sh.name, w, err)
			}
			want := html.RenderString(doc)
			if string(body) != want {
				t.Errorf("%s, workers=%d: compiled body differs from the document pass\n got %q\nwant %q", sh.name, w, body, want)
			}
			if !bytes.Contains(body, []byte(sh.mark)) {
				t.Errorf("%s: %q not in %q", sh.name, sh.mark, body)
			}
			// The first pass paid the pipeline's load; the items are the same.
			if !reflect.DeepEqual(tAssets, assets) || !reflect.DeepEqual(tReport.Items, report.Items) {
				t.Errorf("%s, workers=%d: assets or report items differ between the passes", sh.name, w)
			}
		}
	}
}

// TestParallelBudgetCutoff: the ErrGenDeadline cut-off lands on the
// same item — with the same message — at every worker count, even
// though later items may have already generated concurrently.
func TestParallelBudgetCutoff(t *testing.T) {
	page := mixedPage(t, 5, 0)
	full := runProc(t, 1, page, 0)
	if full.err != nil {
		t.Fatal(full.err)
	}
	// Budget that the third item's accumulation exceeds.
	var cum time.Duration
	for _, it := range full.report.Items[:3] {
		cum += it.SimTime
	}
	budget := cum - 1

	base := runProc(t, 1, page, budget)
	if !errors.Is(base.err, ErrGenDeadline) {
		t.Fatalf("sequential: err = %v, want ErrGenDeadline", base.err)
	}
	wantName := fmt.Sprintf("%q", full.report.Items[2].Name)
	if msg := base.err.Error(); !bytes.Contains([]byte(msg), []byte(wantName)) {
		t.Fatalf("cut-off error %q does not name item %s", msg, wantName)
	}
	for _, w := range workerCounts[1:] {
		got := runProc(t, w, page, budget)
		if !errors.Is(got.err, ErrGenDeadline) {
			t.Fatalf("workers=%d: err = %v, want ErrGenDeadline", w, got.err)
		}
		if got.err.Error() != base.err.Error() {
			t.Errorf("workers=%d: cut-off error %q, sequential %q", w, got.err, base.err)
		}
		if got.bodyErr == nil || got.bodyErr.Error() != base.err.Error() {
			t.Errorf("workers=%d: traditional pass cut off with %v, sequential %q", w, got.bodyErr, base.err)
		}
	}
}

func TestParallelCancel(t *testing.T) {
	page := mixedPage(t, 3, 1)
	for _, w := range workerCounts {
		proc := newParallelProc(t, w)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := proc.ProcessContext(ctx, procPage, html.Parse(page))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", w, err)
		}
	}
}

// sourcePNG encodes a small gradient for upscale tests.
func sourcePNG(t *testing.T) []byte {
	t.Helper()
	img := image.NewRGBA(image.Rect(0, 0, 48, 48))
	for y := 0; y < 48; y++ {
		for x := 0; x < 48; x++ {
			i := img.PixOffset(x, y)
			img.Pix[i+0] = uint8(40 + 4*x)
			img.Pix[i+1] = uint8(40 + 4*y)
			img.Pix[i+2] = 128
			img.Pix[i+3] = 255
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUpscaleSeedPerPath: the detail-synthesis seed is derived from
// the source path's content, so two equal-length paths — which the
// old length-based derivation collided — upscale identical source
// bytes into different outputs.
func TestUpscaleSeedPerPath(t *testing.T) {
	srcA, srcB := "/assets/a.png", "/assets/b.png" // equal length
	if upscaleSeed(srcA) == upscaleSeed(srcB) {
		t.Fatalf("upscaleSeed collides for %q and %q", srcA, srcB)
	}

	var b bytes.Buffer
	b.WriteString("<html><body>")
	for i, src := range []string{srcA, srcB} {
		gc := GeneratedContent{
			Type: ContentUpscale,
			Meta: Metadata{Name: fmt.Sprintf("up-%d", i), Src: src, Scale: 2},
		}
		div, err := gc.Div()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(html.RenderString(div))
	}
	b.WriteString("</body></html>")

	proc, err := NewPageProcessor(device.Laptop, imagegen.SD21, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	raw := sourcePNG(t)
	proc.FetchAsset = func(path string) ([]byte, error) { return raw, nil }
	assets, _, err := proc.Process(html.Parse(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, ok := assets["/generated/up-0.png"]
	if !ok {
		t.Fatal("missing upscaled asset up-0")
	}
	bb, ok := assets["/generated/up-1.png"]
	if !ok {
		t.Fatal("missing upscaled asset up-1")
	}
	if bytes.Equal(a, bb) {
		t.Error("equal-length source paths produced identical upscales (seed collision)")
	}
}

// TestCompiledPageConcurrentFirstUse: goroutines racing to be a page's
// first traditional render, and its first prompt-path reader, all see
// the one parse and the one compilation, and render the same body (run
// under -race).
func TestCompiledPageConcurrentFirstUse(t *testing.T) {
	src := mixedPage(t, 2, 1)
	want := runProc(t, 1, src, 0).html
	page := &Page{Path: procPage, Doc: html.Parse(src)}
	proc := newParallelProc(t, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 1 {
				if req := page.Requirements(); !req.Supports(http2.GenImage | http2.GenText) {
					t.Errorf("requirements %v", req)
				}
				return
			}
			body, _, _, err := traditional(proc, page)
			if err != nil || string(body) != want {
				t.Errorf("goroutine %d: body differs from the processed document (%v)", g, err)
			}
		}(g)
	}
	wg.Wait()
}
