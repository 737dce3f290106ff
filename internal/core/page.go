package core

import (
	"cmp"
	"fmt"
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

	// Serving memos, computed lazily on first use. Doc must not change
	// once a page is being served (derived forms never touch it), so
	// the rendered prompt bytes, the parsed placeholders and the
	// compiled traditional form are stable for the page's lifetime.
	promptOnce  sync.Once
	promptBytes []byte
	promptLen   string // strconv of len(promptBytes), for content-length

	parseOnce sync.Once
	phs       []Placeholder
	phErr     error // what ProcessContext fails with on this page's malformed divs
	req       http2.GenAbility

	// compiled is built by the first traditional serve, never by the
	// prompt path.
	compileOnce sync.Once
	compiled    *compiledPage
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
		p.promptBytes = html.AppendRender(make([]byte, 0, html.RenderLen(p.Doc)), p.Doc)
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

// Placeholders returns the page's generated-content divs, parsed once
// and shared: callers must not modify the slice. Doc must not change
// after the first call; a caller that rewrites Doc (as PersonalizeDoc
// does) reads the result with FindPlaceholders(p.Doc).
func (p *Page) Placeholders() []Placeholder {
	phs, _ := p.parsed()
	return phs
}

// parsed memoizes FindPlaceholders(p.Doc): the well-formed
// placeholders, the error ProcessContext gives for the malformed ones
// (nil when there are none), and the capability they require.
func (p *Page) parsed() ([]Placeholder, error) {
	p.parseOnce.Do(func() {
		phs, errs := FindPlaceholders(p.Doc)
		p.phs, p.phErr = phs, malformed(errs)
		for _, ph := range phs {
			switch ph.Content.Type {
			case ContentImage:
				p.req |= http2.GenBasic | http2.GenImage
			case ContentText:
				p.req |= http2.GenBasic | http2.GenText
			case ContentUpscale:
				p.req |= http2.GenBasic | http2.GenUpscaleOnly
			}
		}
	})
	return p.phs, p.phErr
}

// SWWWireBytes returns the bytes a generative client receives for the
// page itself: the baseline HTML (which embeds all prompt metadata).
func (p *Page) SWWWireBytes() int {
	return html.RenderLen(p.Doc)
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
	total := 0
	for _, ph := range p.Placeholders() {
		if ob := ph.Content.Meta.OriginalBytes; ob > 0 {
			total += ob
			continue
		}
		if a, ok := p.original(originalPath(ph.Content.Meta.Name)); ok {
			total += len(a.Data)
		}
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
	p.parsed()
	return p.req
}

// TraditionalDoc materializes the page's traditional form using the
// original assets: every generated-content div becomes an <img>
// pointing at the original photo, or the original text. It fails if
// the page has no originals for some placeholder.
func (p *Page) TraditionalDoc() (*html.Node, error) {
	doc := p.Doc.Clone()
	phs, _ := FindPlaceholders(doc)
	for _, ph := range phs {
		path := originalPath(ph.Content.Meta.Name)
		text, err := p.originalText(ph, path)
		if err != nil {
			return nil, err
		}
		ph.Node.Parent.ReplaceChild(ph.Node, originalNode(ph, path, text))
	}
	return doc, nil
}

// originalsBody renders the page's traditional form from its stored
// originals: the bytes of TraditionalDoc, written from the compiled
// page instead of a clone of Doc.
func (p *Page) originalsBody() ([]byte, error) {
	c := p.compile()
	slots := c.slots()
	for i, ph := range c.phs {
		it := &c.items[i]
		text, err := p.originalText(ph, it.origPath)
		if err != nil {
			return nil, err
		}
		if it.hole >= 0 {
			slots[it.hole].fill = it.orig.fill(text, false)
		}
	}
	return c.body(slots), nil
}

// originalNode is the traditional stand-in for one placeholder: an
// <img> of its original photo at path, or a paragraph of its original
// text; nil for a content type it has none for.
func originalNode(ph Placeholder, path, text string) *html.Node {
	switch ph.Content.Type {
	case ContentImage, ContentUpscale:
		return html.NewElement("img",
			html.Attribute{Name: "src", Value: path},
			html.Attribute{Name: "alt", Value: ph.Content.Meta.Prompt},
		)
	case ContentText:
		// The traditional text form is the full prose; bullets are its
		// lossless summary, so the original is carried as an asset too.
		par := html.NewElement("p")
		par.AppendChild(html.NewText(text))
		return par
	}
	return nil
}

// originalText checks that the page stores placeholder ph's original at
// path and returns the text originalNode needs: the original prose, or
// "" for media.
func (p *Page) originalText(ph Placeholder, path string) (string, error) {
	a, ok := p.original(path)
	switch ph.Content.Type {
	case ContentImage, ContentUpscale:
		if !ok {
			return "", fmt.Errorf("core: no original asset %q", path)
		}
		return "", nil
	case ContentText:
		if !ok {
			return "", fmt.Errorf("core: no original text %q", path)
		}
		return string(a.Data), nil
	}
	return "", fmt.Errorf("core: unsupported content type %q", ph.Content.Type)
}

// original finds the stored original at path; of several with the same
// path, the last wins, as it does in the server's asset map.
func (p *Page) original(path string) (Asset, bool) {
	for i := len(p.Originals) - 1; i >= 0; i-- {
		if p.Originals[i].Path == path {
			return p.Originals[i], true
		}
	}
	return Asset{}, false
}

// A compiledPage is what every traditional render of a page shares: the
// static HTML between its top-level placeholders and each placeholder's
// replacement markup, asset path and metadata sizes. A render pays only
// for what differs per fetch: each image's §7 verdict and each text.
type compiledPage struct {
	phs    []Placeholder // the page's well-formed placeholders
	items  []compiledItem
	segs   []string // static HTML around the holes: one more than there are holes
	static int      // total length of segs

	paths  []string // generatedPaths(the page's path, phs)
	assets []string // the paths that are not "", in document order
}

// A compiledItem is what a compiledPage knows of one placeholder.
type compiledItem struct {
	// hole is the placeholder's hole, or -1 when it sits inside another
	// placeholder, whose replacement takes it along (as ReplaceChild of
	// the outer div does in a document).
	hole int
	// asset is the placeholder's index in compiledPage.assets, -1 when
	// it generates no asset.
	asset         int
	wire, content int // WireSize, ContentSize

	origPath string // originalPath of the placeholder's name
	// gen and orig are generatedNode's and originalNode's replacement,
	// rendered once; holes only.
	gen, orig markup
}

// A markup is a replacement node rendered once: a paragraph's tags
// around its text, or all of an <img> in pre; and pre again for the
// node marked as failing §7 verification.
type markup struct {
	pre, post, failed string
	text              bool // pre and post go around text
}

// compileMarkup renders n, and failed, n marked as failing §7
// verification, if there is one. A nil n (a content type with no
// replacement) leaves the markup empty: the pass that would use it
// fails first.
func compileMarkup(n, failed *html.Node) markup {
	var m markup
	m.pre, m.post, m.text = renderCut(n)
	m.failed = m.pre
	if failed != nil {
		m.failed, _, _ = renderCut(failed)
	}
	return m
}

// renderCut renders n cut around its one child, a paragraph's text:
// the bytes before and after it, and whether there was a child.
func renderCut(n *html.Node) (pre, post string, cut bool) {
	if n == nil {
		return "", "", false
	}
	if n.FirstChild == nil {
		return html.RenderString(n), "", false
	}
	segs := html.Segments(n, []*html.Node{n.FirstChild})
	return segs[0], segs[1], true
}

// A fill is what one hole of a compiled page holds in one render: its
// markup around its text, escaped as it is written.
type fill struct{ pre, text, post string }

// A tradSlot is row k of the one table the server's traditional pass
// writes: hole k's fill and the bytes of compiledPage.assets[k]. Sharing
// rows makes the pass's two tables one allocation; a page has as many
// rows as it has holes or assets, whichever is more.
type tradSlot struct {
	fill  fill
	asset []byte
}

// fill is m around text, if m has room for it, and the failed variant
// when failed.
func (m *markup) fill(text string, failed bool) fill {
	f := fill{pre: m.pre, post: m.post}
	if failed {
		f.pre = m.failed
	}
	if m.text {
		f.text = text
	}
	return f
}

// compile memoizes the page's compiledPage. Malformed divs are not
// holes: like TraditionalDoc, the compiled page renders them as they
// are.
func (p *Page) compile() *compiledPage {
	p.compileOnce.Do(func() {
		phs, _ := p.parsed()
		c := &compiledPage{phs: phs, items: make([]compiledItem, len(phs)), paths: generatedPaths(p.Path, phs)}
		holes := make([]*html.Node, 0, len(phs))
		for i, ph := range phs {
			path := c.paths[i]
			it := &c.items[i]
			it.asset = -1
			if path != "" {
				it.asset = len(c.assets)
				c.assets = append(c.assets, path)
			}
			it.wire, it.content = ph.Content.WireSize(), ph.Content.ContentSize()
			it.origPath = originalPath(ph.Content.Meta.Name)
			// Placeholders come in document order, so one inside another
			// follows it before any later top-level one.
			if len(holes) > 0 && isAncestor(holes[len(holes)-1], ph.Node) {
				it.hole = -1
				continue
			}
			it.hole = len(holes)
			holes = append(holes, ph.Node)
			it.gen = compileMarkup(generatedNode(ph, path, "", false), generatedNode(ph, path, "", true))
			it.orig = compileMarkup(originalNode(ph, it.origPath, ""), nil)
		}
		c.segs = html.Segments(p.Doc, holes)
		for _, s := range c.segs {
			c.static += len(s)
		}
		p.compiled = c
	})
	return p.compiled
}

func isAncestor(a, n *html.Node) bool {
	for n = n.Parent; n != nil; n = n.Parent {
		if n == a {
			return true
		}
	}
	return false
}

// slots returns an empty table of the page's traditional pass.
func (c *compiledPage) slots() []tradSlot {
	return make([]tradSlot, max(len(c.segs)-1, len(c.assets)))
}

// body writes segs[0], slots[0]'s fill, segs[1], … into one
// exactly-sized buffer.
func (c *compiledPage) body(slots []tradSlot) []byte {
	holes := slots[:len(c.segs)-1]
	n := c.static
	for k := range holes {
		f := &holes[k].fill
		n += len(f.pre) + html.EscapedLen(f.text) + len(f.post)
	}
	b := append(make([]byte, 0, n), c.segs[0]...)
	for k := range holes {
		f := &holes[k].fill
		b = append(b, f.pre...)
		b = html.AppendEscaped(b, f.text)
		b = append(b, f.post...)
		b = append(b, c.segs[k+1]...)
	}
	return b
}

// originalPath is where a placeholder's original media lives on the
// traditional server.
func originalPath(name string) string {
	return "/original/" + sanitizeName(name)
}

// generatedPaths assigns page's generated media their serving
// paths, in document order: "" for a placeholder that generates no
// asset (text), else generatedPath of its name — unless an earlier
// placeholder's name gave the same path (names are sanitized, so "Pic"
// and "pic" do), when it takes the first of that path's -2, -3, … that
// no placeholder's name gives. A path no other name gives is the
// name's own.
func generatedPaths(page string, phs []Placeholder) []string {
	paths := make([]string, len(phs))
	for i, ph := range phs {
		if t := ph.Content.Type; t == ContentImage || t == ContentUpscale {
			paths[i] = generatedPath(page, ph.Content.Meta.Name)
		}
	}
	if len(phs) < 2 {
		return paths
	}
	taken := make(map[string]bool, len(phs)) // every name's path, true once assigned
	for _, path := range paths {
		if path != "" {
			taken[path] = false
		}
	}
	for i, path := range paths {
		if path == "" {
			continue
		}
		if !taken[path] {
			taken[path] = true
			continue
		}
		stem := strings.TrimSuffix(path, ".png")
		for k := 2; ; k++ {
			alt := stem + "-" + strconv.Itoa(k) + ".png"
			if _, ok := taken[alt]; !ok {
				taken[alt], paths[i] = true, alt
				break
			}
		}
	}
	return paths
}

// generatedPath is where the generated media of page's placeholder named
// name is exposed, unless another claims it first (see generatedPaths):
// /generated, the page's path verbatim ("" for "/"), then the name.
func generatedPath(page, name string) string {
	if page == "/" {
		page = ""
	}
	return "/generated" + page + "/" + sanitizeName(name) + ".png"
}

// generatedPage is the page of the generated asset at path, "" if none:
// a sanitized name holds no "/", so the page is all before the last one.
func generatedPage(path string) string {
	if !strings.HasPrefix(path, "/generated/") {
		return ""
	}
	return cmp.Or(path[len("/generated"):strings.LastIndexByte(path, '/')], "/")
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
