package core

// FuzzMetadataJSON drives ParseGeneratedDiv with arbitrary
// content-type and metadata attributes. The contract under fuzzing:
// never panic, every metadata failure is a typed *MetadataError, and
// anything accepted respects the numeric bounds that gate downstream
// allocations. Seed corpus in testdata/fuzz/FuzzMetadataJSON.

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"sww/internal/html"
)

func FuzzMetadataJSON(f *testing.F) {
	f.Add("img", `{"prompt":"a city skyline","name":"hero","width":640,"height":480}`)
	f.Add("txt", `{"name":"body","bullets":["solar","storage"],"words":120}`)
	f.Add("img-upscale", `{"name":"up","src":"/assets/low.png","scale":4}`)
	f.Add("img", `{bad json`)
	f.Add("img", `{"prompt":"p","width":1073741824}`)
	f.Add("img", `{"prompt":"`+strings.Repeat("a", 200)+`","steps":-3}`)
	f.Add("zzz", `{}`)
	f.Add("img", `[[[[[[[[{"prompt":1}]]]]]]]]`)

	f.Fuzz(func(t *testing.T, ct, meta string) {
		div := html.NewElement("div",
			html.Attribute{Name: "class", Value: GeneratedClass},
			html.Attribute{Name: attrContentType, Value: ct},
			html.Attribute{Name: attrMetadata, Value: meta},
		)
		gc, err := ParseGeneratedDiv(div)
		if err != nil {
			var me *MetadataError
			if !errors.As(err, &me) {
				t.Fatalf("untyped metadata error %T: %v", err, err)
			}
			return
		}
		m := gc.Meta
		switch {
		case m.Width < 0 || m.Width > MaxDimension || m.Height < 0 || m.Height > MaxDimension:
			t.Fatalf("accepted out-of-bounds dimensions %dx%d", m.Width, m.Height)
		case m.Steps < 0 || m.Steps > MaxSteps:
			t.Fatalf("accepted out-of-bounds steps %d", m.Steps)
		case m.Scale < 0 || m.Scale > MaxScale:
			t.Fatalf("accepted out-of-bounds scale %d", m.Scale)
		case m.Words < 0 || m.Words > MaxWords:
			t.Fatalf("accepted out-of-bounds words %d", m.Words)
		case m.OriginalBytes < 0:
			t.Fatalf("accepted negative original_bytes %d", m.OriginalBytes)
		case len(m.Bullets) > maxBullets:
			t.Fatalf("accepted %d bullets", len(m.Bullets))
		}
	})
}

// FuzzTraditionalSegments is a differential test of the compiled page
// against the document pass it replaces. For any parsed page, putting
// fixed replacement nodes into the compiled holes must render byte for
// byte what Clone, ReplaceChild of every placeholder in document order,
// and a render of the clone produce — nested placeholders included,
// which vanish with the div around them. And a server-side traditional
// generation must fail exactly as ProcessContext on a clone does, here
// with no pipeline: on the page's malformed divs, or on its first
// placeholder; a page with no placeholders renders as itself.
func FuzzTraditionalSegments(f *testing.F) {
	div := func(ct, meta, inner string) string {
		return `<div class="generated-content" content-type="` + ct + `" metadata='` + meta + `'>` + inner + `</div>`
	}
	img := div("img", `{"prompt":"a \"quoted\" lake & hills","name":"lake"}`, "")
	txt := div("txt", `{"name":"intro","bullets":["one","two"]}`, "fallback <b>text</b>")
	f.Add(`<!DOCTYPE html><html><body><h1>T</h1>` + img + `<p>mid</p>` + txt + `</body></html>`)
	f.Add(`<body>` + div("img", `{"prompt":"outer","name":"o"}`, `<span>`+img+`</span>`) + txt + `</body>`)
	f.Add(`<body>` + div("img", `{bad json`, img) + txt + `</body>`)
	f.Add(img + `<p>only child text</p>` + txt)
	f.Add(`<ul><li>` + img + `</li><li>x` + txt + `</li></ul>`)
	f.Add(`<title>` + img + `</title><script>` + txt + `</script>`)
	f.Add(`<p>no placeholders &amp; an entity</p>`)

	f.Fuzz(func(t *testing.T, src string) {
		page := &Page{Path: "/fuzz", Doc: html.Parse(src)}
		phs, err := page.parsed()
		doc := page.Doc.Clone()
		docPhs, docErrs := FindPlaceholders(doc)
		if len(docPhs) != len(phs) {
			t.Fatalf("%d placeholders in the clone, %d memoized", len(docPhs), len(phs))
		}
		if want := malformed(docErrs); (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
			t.Fatalf("memoized parse error %v, clone's %v", err, want)
		}

		c := page.compile()
		pl := c.placement()
		for i, ph := range docPhs {
			pl.place(i, fixedReplacement(i))
			ph.Node.Parent.ReplaceChild(ph.Node, fixedReplacement(i))
		}
		if got, want := string(c.body(pl.nodes)), html.RenderString(doc); got != want {
			t.Fatalf("compiled body differs from the document pass\n got %q\nwant %q", got, want)
		}

		pp := &PageProcessor{Workers: 1}
		body, _, _, gotErr := pp.processTraditional(context.Background(), page)
		_, _, wantErr := pp.ProcessContext(context.Background(), page.Doc.Clone())
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("processTraditional error %v, ProcessContext %v", gotErr, wantErr)
		}
		if gotErr == nil && string(body) != html.RenderString(page.Doc) {
			t.Fatalf("a page without placeholders rendered as %q", body)
		}
	})
}

// fixedReplacement is the i-th placeholder's stand-in: an image or a
// paragraph, each with bytes that must be escaped.
func fixedReplacement(i int) *html.Node {
	if i%2 == 0 {
		return html.NewElement("img",
			html.Attribute{Name: "src", Value: "/generated/" + strconv.Itoa(i) + ".png"},
			html.Attribute{Name: "alt", Value: `"a" & <b>`})
	}
	p := html.NewElement("p", html.Attribute{Name: "class", Value: "sww-generated"})
	p.AppendChild(html.NewText("it's 1 < 2 & so on"))
	return p
}
