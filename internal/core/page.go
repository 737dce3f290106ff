package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"sww/internal/html"
	"sww/internal/http2"
)

// An Asset is a non-HTML resource a page references: unique content
// (the paper's hike photos) or an original photo used by the
// traditional baseline.
type Asset struct {
	Path        string
	ContentType string
	Data        []byte
}

// A Page is one SWW site entry. Doc is the baseline webpage with
// generated-content divs (§2.1: "the server stores a baseline webpage
// with prompts"); Unique holds content that must be served as-is;
// Originals, when present, holds the pre-SWW media so the same page
// can also be served in its traditional form as a baseline.
type Page struct {
	Path string
	Doc  *html.Node

	Unique    []Asset
	Originals []Asset

	// Serving memos, computed lazily on first use. Doc is never
	// mutated once a page is being served (derived forms clone it), so
	// the rendered prompt bytes and the capability requirements are
	// stable for the page's lifetime.
	promptOnce  sync.Once
	promptBytes []byte
	promptLen   string // strconv of len(promptBytes), for content-length
	reqOnce     sync.Once
	req         http2.GenAbility
}

// HTML renders the page's SWW form.
func (p *Page) HTML() string { return html.RenderString(p.Doc) }

// PromptBytes returns the page's SWW (prompt) form as immutable
// bytes, rendered once and memoized: a warm prompt serve does no
// per-request render, and every request is sent the same bytes.
// Callers must not mutate the returned slice — or Doc, once the page
// is served.
func (p *Page) PromptBytes() []byte {
	p.promptOnce.Do(func() {
		p.promptBytes = []byte(html.RenderString(p.Doc))
		p.promptLen = strconv.Itoa(len(p.promptBytes))
	})
	return p.promptBytes
}

// PromptLen returns len(PromptBytes()) pre-formatted for a
// content-length field, memoized alongside the bytes.
func (p *Page) PromptLen() string {
	p.PromptBytes()
	return p.promptLen
}

// Placeholders returns the page's generated-content divs.
func (p *Page) Placeholders() []Placeholder {
	ph, _ := FindPlaceholders(p.Doc)
	return ph
}

// SWWWireBytes returns the bytes a generative client receives for the
// page itself: the baseline HTML (which embeds all prompt metadata).
func (p *Page) SWWWireBytes() int {
	return len(p.HTML())
}

// MetadataBytes sums the JSON wire size of all placeholder metadata.
func (p *Page) MetadataBytes() int {
	total := 0
	for _, ph := range p.Placeholders() {
		total += ph.Content.WireSize()
	}
	return total
}

// MetadataContentBytes sums the paper-style metadata accounting
// (see GeneratedContent.ContentSize) — the denominator of Figure 2's
// 157× compression factor.
func (p *Page) MetadataContentBytes() int {
	total := 0
	for _, ph := range p.Placeholders() {
		total += ph.Content.ContentSize()
	}
	return total
}

// OriginalMediaBytes sums the sizes of the media the placeholders
// replaced: explicit OriginalBytes metadata when present, otherwise
// the stored original asset of the same name.
func (p *Page) OriginalMediaBytes() int {
	byPath := map[string]int{}
	for _, a := range p.Originals {
		byPath[a.Path] = len(a.Data)
	}
	total := 0
	for _, ph := range p.Placeholders() {
		if ob := ph.Content.Meta.OriginalBytes; ob > 0 {
			total += ob
			continue
		}
		total += byPath[originalPath(ph.Content.Meta.Name)]
	}
	return total
}

// MediaCompressionRatio is the paper's headline metric: original
// media bytes ÷ paper-style metadata bytes (Figure 2: 157×; worst
// case 68×).
func (p *Page) MediaCompressionRatio() float64 {
	meta := p.MetadataContentBytes()
	if meta == 0 {
		return 1
	}
	return float64(p.OriginalMediaBytes()) / float64(meta)
}

// Requirements returns the generative capability a client needs to
// render this page locally: the basic flag plus one bit per content
// modality present. The server serves the prompt form only to clients
// whose negotiated ability covers all of it (so an upscale-only
// client still gets upscale pages in SWW form but full-generation
// pages traditionally, per §3's "more complex support options, such
// as upscale-only").
func (p *Page) Requirements() http2.GenAbility {
	p.reqOnce.Do(func() {
		req := http2.GenNone
		for _, ph := range p.Placeholders() {
			switch ph.Content.Type {
			case ContentImage:
				req |= http2.GenBasic | http2.GenImage
			case ContentText:
				req |= http2.GenBasic | http2.GenText
			case ContentUpscale:
				req |= http2.GenBasic | http2.GenUpscaleOnly
			}
		}
		p.req = req
	})
	return p.req
}

// TraditionalDoc materializes the page's traditional form using the
// original assets: every generated-content div becomes an <img>
// pointing at the original photo, or the original text. It fails if
// the page has no originals for some placeholder.
func (p *Page) TraditionalDoc() (*html.Node, error) {
	byName := map[string]Asset{}
	for _, a := range p.Originals {
		byName[a.Path] = a
	}
	doc := p.Doc.Clone()
	phs, _ := FindPlaceholders(doc)
	for _, ph := range phs {
		switch ph.Content.Type {
		case ContentImage, ContentUpscale:
			path := originalPath(ph.Content.Meta.Name)
			if _, ok := byName[path]; !ok {
				return nil, fmt.Errorf("core: no original asset %q", path)
			}
			img := html.NewElement("img",
				html.Attribute{Name: "src", Value: path},
				html.Attribute{Name: "alt", Value: ph.Content.Meta.Prompt},
			)
			ph.Node.Parent.ReplaceChild(ph.Node, img)
		case ContentText:
			// The traditional text form is the full prose; bullets
			// are its lossless summary, so the original is carried as
			// an asset too.
			path := originalPath(ph.Content.Meta.Name)
			a, ok := byName[path]
			if !ok {
				return nil, fmt.Errorf("core: no original text %q", path)
			}
			par := html.NewElement("p")
			par.AppendChild(html.NewText(string(a.Data)))
			ph.Node.Parent.ReplaceChild(ph.Node, par)
		}
	}
	return doc, nil
}

// originalPath is where a placeholder's original media lives on the
// traditional server.
func originalPath(name string) string {
	return "/original/" + sanitizeName(name)
}

// generatedPath is where client- or server-side generated media is
// exposed.
func generatedPath(name string) string {
	return "/generated/" + sanitizeName(name) + ".png"
}

func sanitizeName(name string) string {
	if name == "" {
		return "unnamed"
	}
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// AssetPaths returns the src attributes of all <img> elements in doc,
// deduplicated, in document order — what a client must fetch after
// the HTML.
func AssetPaths(doc *html.Node) []string {
	seen := map[string]bool{}
	var out []string
	for _, img := range doc.ByTag("img") {
		src, ok := img.AttrValue("src")
		if !ok || src == "" || seen[src] {
			continue
		}
		// Only same-site paths are fetchable in this prototype.
		if !strings.HasPrefix(src, "/") {
			continue
		}
		seen[src] = true
		out = append(out, src)
	}
	return out
}

// SortAssets orders assets by path for deterministic serving tables.
func SortAssets(assets []Asset) {
	sort.Slice(assets, func(i, j int) bool { return assets[i].Path < assets[j].Path })
}
