package core

// FuzzMetadataJSON drives ParseGeneratedDiv with arbitrary
// content-type and metadata attributes. The contract under fuzzing:
// never panic, every metadata failure is a typed *MetadataError, and
// anything accepted respects the numeric bounds that gate downstream
// allocations. Seed corpus in testdata/fuzz/FuzzMetadataJSON.

import (
	"context"
	"errors"
	"slices"
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
// against the document pass it replaces. For any parsed page, placing
// the same stand-in generation results — text and alt attributes that
// must be escaped, verified and failed images — into the compiled holes
// must render byte for byte what placing them into a clone does:
// ReplaceChild of every placeholder in document order and a render of
// the clone, nested placeholders included, which vanish with the div
// around them. Both passes must assign the same asset paths, each of
// which names the page and no other of its assets, and, with
// an original stored for every placeholder, the page written from its
// originals must be TraditionalDoc's render. And a
// server-side traditional generation must fail exactly as
// ProcessContext on a clone does, here with no pipeline: on the page's
// malformed divs, or on its first placeholder; a page with no
// placeholders renders as itself.
func FuzzTraditionalSegments(f *testing.F) {
	div := func(ct, meta, inner string) string {
		return `<div class="generated-content" content-type="` + ct + `" metadata='` + meta + `'>` + inner + `</div>`
	}
	img := div("img", `{"prompt":"a \"quoted\" lake & hills","name":"lake"}`, "")
	txt := div("txt", `{"name":"intro","bullets":["one","two"]}`, "fallback <b>text</b>")
	f.Add(`<!DOCTYPE html><html><body><h1>T</h1>`+img+`<p>mid</p>`+txt+`</body></html>`, "/")
	f.Add(`<body>`+div("img", `{"prompt":"outer","name":"o"}`, `<span>`+img+`</span>`)+txt+`</body>`, "/fuzz")
	f.Add(`<body>`+div("img", `{bad json`, img)+txt+`</body>`, "/a/b")
	f.Add(img+`<p>only child text</p>`+txt, "/x.png/")
	f.Add(`<ul><li>`+img+`</li><li>x`+txt+`</li></ul>`, "/")
	f.Add(`<title>`+img+`</title><script>`+txt+`</script>`, "/fuzz")
	f.Add(`<p>no placeholders &amp; an entity</p>`, "/a/b")
	f.Add(`<body>`+img+div("img-upscale", `{"name":"Lake","src":"/low.png","scale":2}`, "")+img+`</body>`, "/x.png/")

	f.Fuzz(func(t *testing.T, src, path string) {
		if !strings.HasPrefix(path, "/") {
			return // not a page's path
		}
		page := &Page{Path: path, Doc: html.Parse(src)}
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
		compiled := placement{phs: c.phs, paths: c.paths, page: c, slots: c.slots()}
		document := placement{phs: docPhs, paths: generatedPaths(path, docPhs), assets: map[string][]byte{}}
		for i := range docPhs {
			if compiled.paths[i] != document.paths[i] {
				t.Fatalf("placeholder %d: compiled path %q, document pass %q", i, compiled.paths[i], document.paths[i])
			}
			r := standIn(i, compiled.paths[i])
			compiled.place(i, &r)
			document.place(i, &r)
		}
		if got, want := string(c.body(compiled.slots)), html.RenderString(doc); got != want {
			t.Fatalf("compiled body differs from the document pass\n got %q\nwant %q", got, want)
		}
		if len(c.assets) != len(document.assets) {
			t.Fatalf("%d compiled assets, %d from the document pass", len(c.assets), len(document.assets))
		}
		for k, asset := range c.assets {
			if got, want := compiled.slots[k].asset, document.assets[asset]; string(got) != string(want) {
				t.Fatalf("asset %q: compiled %q, document pass %q", asset, got, want)
			}
			if got := generatedPage(asset); got != path || slices.Index(c.assets, asset) != k {
				t.Fatalf("asset %q of slot %d splits to page %q, slot %d", asset, k, got, slices.Index(c.assets, asset))
			}
		}

		for _, ph := range phs {
			name := ph.Content.Meta.Name
			page.Originals = append(page.Originals, Asset{Path: originalPath(name), Data: []byte("<i>" + name + "</i> & more")})
		}
		tdoc, err := page.TraditionalDoc()
		if err != nil {
			t.Fatal(err)
		}
		if got, err := page.originalsBody(); err != nil || string(got) != html.RenderString(tdoc) {
			t.Fatalf("originals body %q, %v; TraditionalDoc renders %q", got, err, html.RenderString(tdoc))
		}

		pp := &PageProcessor{Workers: 1}
		body, _, _, gotErr := traditional(pp, page)
		_, _, wantErr := pp.ProcessContext(context.Background(), path, page.Doc.Clone())
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("processTraditional error %v, ProcessContext %v", gotErr, wantErr)
		}
		if gotErr == nil && string(body) != html.RenderString(page.Doc) {
			t.Fatalf("a page without placeholders rendered as %q", body)
		}
	})
}

// standIn is the i-th placeholder's stand-in generation result: prose
// with bytes that must be escaped, every other image failing §7
// verification, and asset bytes that name the placeholder.
func standIn(i int, path string) genResult {
	r := genResult{
		item: ItemReport{VerifyFailed: i%2 == 1},
		path: path,
		text: "it's " + strconv.Itoa(i) + " < 2 & so on",
	}
	if path != "" {
		r.data = []byte("asset " + strconv.Itoa(i))
	}
	return r
}
