package html

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizerBasics(t *testing.T) {
	z := NewTokenizer(`<!DOCTYPE html><html lang="en"><body><p>Hi &amp; bye</p><br/><!--note--></body></html>`)
	var tokens []Token
	for {
		tok := z.Next()
		if tok.Type == ErrorToken {
			break
		}
		tokens = append(tokens, tok)
	}
	wantTypes := []TokenType{
		DoctypeToken, StartTagToken, StartTagToken, StartTagToken,
		TextToken, EndTagToken, SelfClosingTagToken, CommentToken,
		EndTagToken, EndTagToken,
	}
	if len(tokens) != len(wantTypes) {
		t.Fatalf("got %d tokens, want %d: %v", len(tokens), len(wantTypes), tokens)
	}
	for i, want := range wantTypes {
		if tokens[i].Type != want {
			t.Errorf("token %d = %v, want %v", i, tokens[i].Type, want)
		}
	}
	if tokens[1].Data != "html" {
		t.Errorf("tag name = %q", tokens[1].Data)
	}
	if v, _ := tokens[1].AttrValue("lang"); v != "en" {
		t.Errorf("lang = %q", v)
	}
	if tokens[4].Data != "Hi & bye" {
		t.Errorf("text = %q", tokens[4].Data)
	}
	if tokens[7].Data != "note" {
		t.Errorf("comment = %q", tokens[7].Data)
	}
}

func TestTokenizerAttributeForms(t *testing.T) {
	z := NewTokenizer(`<input type=text disabled value='a b' data-x="1&lt;2">`)
	tok := z.Next()
	if tok.Type != StartTagToken || tok.Data != "input" {
		t.Fatalf("token = %+v", tok)
	}
	cases := map[string]string{"type": "text", "disabled": "", "value": "a b", "data-x": "1<2"}
	for name, want := range cases {
		got, ok := tok.AttrValue(name)
		if !ok {
			t.Errorf("attribute %q missing", name)
		}
		if got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
}

func TestTokenizerRawText(t *testing.T) {
	z := NewTokenizer(`<script>if (a < b && c > d) { x("</div>"); }</script><p>after</p>`)
	_ = z.Next() // <script>
	text := z.Next()
	if text.Type != TextToken || !strings.Contains(text.Data, "a < b && c > d") {
		t.Fatalf("script body = %+v", text)
	}
	// Note: like real tokenizers without escaping support, the body
	// ends at the first literal "</script", so the string containing
	// "</div>" stays inside the body.
	if !strings.Contains(text.Data, `</div>`) {
		t.Error("string content containing markup was split")
	}
	end := z.Next()
	if end.Type != EndTagToken || end.Data != "script" {
		t.Fatalf("end = %+v", end)
	}
}

func TestTokenizerBareLessThan(t *testing.T) {
	z := NewTokenizer(`a < b`)
	var text strings.Builder
	for {
		tok := z.Next()
		if tok.Type == ErrorToken {
			break
		}
		if tok.Type != TextToken {
			t.Fatalf("unexpected token %+v", tok)
		}
		text.WriteString(tok.Data)
	}
	if text.String() != "a < b" {
		t.Errorf("text = %q", text.String())
	}
}

func TestEntities(t *testing.T) {
	cases := map[string]string{
		"&amp;":           "&",
		"&lt;tag&gt;":     "<tag>",
		"&#65;&#x42;":     "AB",
		"&copy; 2025":     "© 2025",
		"&bogus;":         "&bogus;",
		"a &amp b":        "a &amp b", // unterminated
		"&mdash;&hellip;": "—…",
	}
	for in, want := range cases {
		if got := UnescapeString(in); got != want {
			t.Errorf("Unescape(%q) = %q, want %q", in, got, want)
		}
	}
	if got := EscapeString(`<a href="x">&'`); got != "&lt;a href=&quot;x&quot;&gt;&amp;&#39;" {
		t.Errorf("Escape = %q", got)
	}
	// Escape/unescape round trip.
	for _, s := range []string{"plain", `<>&"'`, "mixed <b>&amp;</b>"} {
		if got := UnescapeString(EscapeString(s)); got != s {
			t.Errorf("round trip %q = %q", s, got)
		}
	}
}

func TestParseTree(t *testing.T) {
	doc := Parse(`<html><body><div id="main" class="content wide"><p>One</p><p>Two</p><img src="x.jpg"></div></body></html>`)
	main := doc.ByID("main")
	if main == nil {
		t.Fatal("no #main")
	}
	if !main.HasClass("content") || !main.HasClass("wide") || main.HasClass("nope") {
		t.Error("class handling broken")
	}
	ps := doc.ByTag("p")
	if len(ps) != 2 {
		t.Fatalf("%d <p>, want 2", len(ps))
	}
	if ps[0].Text() != "One" || ps[1].Text() != "Two" {
		t.Errorf("p texts = %q, %q", ps[0].Text(), ps[1].Text())
	}
	imgs := doc.ByTag("img")
	if len(imgs) != 1 {
		t.Fatalf("%d <img>, want 1", len(imgs))
	}
	if imgs[0].FirstChild != nil {
		t.Error("void element has children")
	}
	if imgs[0].Parent != main {
		t.Error("img not child of #main")
	}
}

func TestParseImplicitClose(t *testing.T) {
	doc := Parse(`<ul><li>a<li>b<li>c</ul><p>x<p>y`)
	if got := len(doc.ByTag("li")); got != 3 {
		t.Errorf("%d <li>, want 3", got)
	}
	lis := doc.ByTag("li")
	for i, want := range []string{"a", "b", "c"} {
		if lis[i].Text() != want {
			t.Errorf("li[%d] = %q, want %q", i, lis[i].Text(), want)
		}
	}
	ps := doc.ByTag("p")
	if len(ps) != 2 || ps[0].Text() != "x" || ps[1].Text() != "y" {
		t.Errorf("implicit <p> close broken: %d", len(ps))
	}
}

func TestParseStrayEndTag(t *testing.T) {
	doc := Parse(`<div>a</span>b</div>`)
	div := doc.ByTag("div")[0]
	if div.Text() != "ab" {
		t.Errorf("text = %q, want ab", div.Text())
	}
}

func TestParseUnclosedElements(t *testing.T) {
	doc := Parse(`<div><p>text`)
	if len(doc.ByTag("div")) != 1 || len(doc.ByTag("p")) != 1 {
		t.Error("unclosed elements lost")
	}
	if doc.ByTag("p")[0].Text() != "text" {
		t.Error("text lost in unclosed element")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	src := `<!DOCTYPE html><html><head><title>T&amp;C</title></head><body><div class="generated-content" content-type="img" metadata="{&quot;prompt&quot;:&quot;a goldfish&quot;}"></div><p>para</p></body></html>`
	doc := Parse(src)
	out := RenderString(doc)
	// Parse the rendering again: the trees must be identical.
	doc2 := Parse(out)
	if RenderString(doc2) != out {
		t.Error("render is not a fixed point")
	}
	div := doc2.ByClass("generated-content")
	if len(div) != 1 {
		t.Fatalf("generated-content div lost: %d", len(div))
	}
	meta, _ := div[0].AttrValue("metadata")
	if meta != `{"prompt":"a goldfish"}` {
		t.Errorf("metadata = %q", meta)
	}
}

func TestRenderEscaping(t *testing.T) {
	n := NewElement("div", Attribute{Name: "title", Value: `He said "hi" & left`})
	n.AppendChild(NewText(`1 < 2 & 3 > 2`))
	out := RenderString(n)
	// The value holds more '"' than '\'', so '\'' delimits it and '"'
	// needs no entity; text escapes both quotes.
	want := `<div title='He said "hi" &amp; left'>1 &lt; 2 &amp; 3 &gt; 2</div>`
	if out != want {
		t.Errorf("render = %q\nwant    %q", out, want)
	}
	doc := Parse(out)
	div := doc.ByTag("div")[0]
	if got := div.Text(); got != `1 < 2 & 3 > 2` {
		t.Errorf("reparsed text = %q", got)
	}
	if got, _ := div.AttrValue("title"); got != `He said "hi" & left` {
		t.Errorf("reparsed title = %q", got)
	}
}

func TestRenderScriptVerbatim(t *testing.T) {
	src := `<script>let x = 1 < 2 && "a";</script>`
	out := RenderString(Parse(src))
	if out != src {
		t.Errorf("script round trip = %q", out)
	}
}

// TestSegments: the segments around a page's holes, joined with each
// hole's own rendering, are the page's rendering; a hole's descendants
// go with it, and holes out of order, nested or outside the tree panic.
func TestSegments(t *testing.T) {
	doc := Parse(`<body><div id="a"><i id="in">x</i></div><p>mid &amp; more</p><div id="b"></div></body>`)
	a, b := doc.ByID("a"), doc.ByID("b")
	segs := Segments(doc, []*Node{a, b})
	want := []string{`<body>`, `<p>mid &amp; more</p>`, `</body>`}
	if len(segs) != len(want) {
		t.Fatalf("%d segments, want %d: %q", len(segs), len(want), segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("segment %d = %q, want %q", i, segs[i], want[i])
		}
	}
	if got := segs[0] + RenderString(a) + segs[1] + RenderString(b) + segs[2]; got != RenderString(doc) {
		t.Errorf("joined = %q, want %q", got, RenderString(doc))
	}
	if got := Segments(doc, nil); len(got) != 1 || got[0] != RenderString(doc) {
		t.Errorf("no holes: %q", got)
	}
	for name, holes := range map[string][]*Node{
		"out of order": {b, a},
		"nested":       {a, doc.ByID("in")},
		"detached":     {NewElement("div")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s holes: no panic", name)
				}
			}()
			Segments(doc, holes)
		}()
	}
}

// TestRenderLenAndAppend: the counting pass and the appending pass
// agree with RenderString, and AppendRender keeps what dst held.
func TestRenderLenAndAppend(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><title>a<b</title><p class='q"x'>1 &lt; 2 &amp; 'three'</p><!-- c --><br x=>`)
	out := RenderString(doc)
	if n := RenderLen(doc); n != len(out) {
		t.Errorf("RenderLen = %d, len(RenderString) = %d", n, len(out))
	}
	if got := string(AppendRender([]byte("prefix:"), doc)); got != "prefix:"+out {
		t.Errorf("AppendRender = %q", got)
	}
}

func TestNodeManipulation(t *testing.T) {
	doc := Parse(`<div><span>old</span></div>`)
	div := doc.ByTag("div")[0]
	span := doc.ByTag("span")[0]

	img := NewElement("img", Attribute{Name: "src", Value: "gen/1.png"})
	div.ReplaceChild(span, img)
	if len(doc.ByTag("span")) != 0 || len(doc.ByTag("img")) != 1 {
		t.Fatal("ReplaceChild failed")
	}
	if span.Parent != nil {
		t.Error("old node still attached")
	}

	txt := NewText("caption")
	div.AppendChild(txt)
	if div.LastChild != txt || txt.PrevSibling != img {
		t.Error("AppendChild wiring wrong")
	}
	div.RemoveChild(img)
	if div.FirstChild != txt || txt.PrevSibling != nil {
		t.Error("RemoveChild wiring wrong")
	}

	clone := div.Clone()
	if clone.Parent != nil || RenderString(clone) != RenderString(div) {
		t.Error("Clone mismatch")
	}
	clone.AppendChild(NewText("extra"))
	if RenderString(clone) == RenderString(div) {
		t.Error("Clone shares structure with original")
	}
}

func TestFindHelpers(t *testing.T) {
	doc := Parse(`<div class="a"><div class="b"><i>x</i></div></div><div class="b">y</div>`)
	bs := doc.ByClass("b")
	if len(bs) != 2 {
		t.Fatalf("%d .b, want 2", len(bs))
	}
	first := doc.Find(func(n *Node) bool { return n.HasClass("b") })
	if first == nil || first.Text() != "x" {
		t.Error("Find returned wrong node")
	}
	if doc.ByID("missing") != nil {
		t.Error("ByID should return nil for missing id")
	}
}

// TestParseRenderPropertyRandom builds random trees, renders them and
// reparses: structure must survive.
func TestParseRenderPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Only tags without implicit-close rules: nesting <p> in <p> is
	// invalid HTML and legitimately does not round-trip.
	tags := []string{"div", "span", "section", "em", "article"}
	texts := []string{"hello", "a & b", `quote "x"`, "1<2", "plain text", "déjà vu"}

	var build func(depth int) *Node
	var count int
	build = func(depth int) *Node {
		n := NewElement(tags[rng.Intn(len(tags))])
		count++
		if rng.Intn(3) == 0 {
			n.SetAttr("class", "c"+texts[rng.Intn(len(texts))])
		}
		kids := rng.Intn(4)
		if depth > 4 {
			kids = 0
		}
		for i := 0; i < kids; i++ {
			if rng.Intn(2) == 0 {
				n.AppendChild(NewText(texts[rng.Intn(len(texts))]))
			} else {
				n.AppendChild(build(depth + 1))
			}
		}
		return n
	}
	for iter := 0; iter < 100; iter++ {
		count = 0
		root := build(0)
		out := RenderString(root)
		doc := Parse(out)
		if len(doc.FindAll(func(*Node) bool { return true })) != count {
			t.Fatalf("iter %d: element count mismatch\nhtml: %s", iter, out)
		}
		if RenderString(doc) != out {
			t.Fatalf("iter %d: render not stable\nhtml: %s", iter, out)
		}
	}
}

func TestParseFragment(t *testing.T) {
	nodes := ParseFragment(`<p>a</p><p>b</p>`)
	if len(nodes) != 2 {
		t.Fatalf("%d nodes, want 2", len(nodes))
	}
	for _, n := range nodes {
		if n.Parent != nil {
			t.Error("fragment node still attached")
		}
	}
}

func BenchmarkParseWikipediaLikePage(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`<!DOCTYPE html><html><head><title>Gallery</title></head><body><div class="gallery">`)
	for i := 0; i < 49; i++ {
		sb.WriteString(`<div class="item"><img src="/images/landscape.jpg" width="224" height="224"><span class="caption">A scenic landscape photograph with mountains &amp; lakes</span></div>`)
	}
	sb.WriteString(`</div></body></html>`)
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := Parse(src)
		if len(doc.ByTag("img")) != 49 {
			b.Fatal("parse lost images")
		}
	}
}

func BenchmarkRender(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`<html><body>`)
	for i := 0; i < 100; i++ {
		sb.WriteString(`<div class="x"><p>text &amp; more</p></div>`)
	}
	sb.WriteString(`</body></html>`)
	doc := Parse(sb.String())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if RenderString(doc) == "" {
			b.Fatal("empty render")
		}
	}
}

// TestEscapeQuickProperty: escaping then unescaping is identity for
// every string, the escaped form is safe in text context, and
// AppendEscaped and EscapedLen agree with EscapeString.
func TestEscapeQuickProperty(t *testing.T) {
	f := func(s string) bool {
		esc := EscapeString(s)
		if strings.ContainsAny(esc, "<>") {
			return false
		}
		if string(AppendEscaped([]byte("x"), s)) != "x"+esc || EscapedLen(s) != len(esc) {
			return false
		}
		return UnescapeString(esc) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTextNodeQuickProperty: any string stored in a text node
// round-trips through render + parse.
func TestTextNodeQuickProperty(t *testing.T) {
	f := func(s string) bool {
		n := NewElement("div")
		n.AppendChild(NewText(s))
		doc := Parse(RenderString(n))
		divs := doc.ByTag("div")
		return len(divs) == 1 && divs[0].Text() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
