package html

// FuzzPromptPageParse round-trips arbitrary markup through the parser
// and its depth-recursive consumers (Render, Clone, query helpers).
// Parse never fails by contract, so the properties are: no panic, no
// stack exhaustion, and a tree depth bounded by the parser cap. Seed
// corpus in testdata/fuzz/FuzzPromptPageParse.

import (
	"strings"
	"testing"
)

func FuzzPromptPageParse(f *testing.F) {
	f.Add(`<html><body><div class="generated-content" content-type="img" metadata='{"prompt":"a city","name":"hero"}'></div></body></html>`)
	f.Add(strings.Repeat("<div>", 2000) + "deep" + strings.Repeat("</div>", 2000))
	f.Add(`<p>unclosed <b>tags <i>every<where`)
	f.Add(`<!-- comment --><!DOCTYPE html><img src=x><br/><p>&amp;&lt;&#65;&bogus;`)
	f.Add(`</div></p></html>stray end tags`)
	f.Add("<div class='generated-content' metadata='{\"broken\":'>text</div>")
	f.Add("<title>\xff\xff\xff\xff</title") // raw text that lowers to more bytes

	f.Fuzz(func(t *testing.T, src string) {
		doc := Parse(src)

		maxDepth := 0
		var walk func(*Node, int)
		walk = func(n *Node, d int) {
			if d > maxDepth {
				maxDepth = d
			}
			for c := n.FirstChild; c != nil; c = c.NextSibling {
				walk(c, d+1)
			}
		}
		walk(doc, 0)
		if maxDepth > maxParseDepth+1 {
			t.Fatalf("tree depth %d exceeds parser cap %d", maxDepth, maxParseDepth)
		}

		// The recursive consumers must survive whatever Parse built,
		// and the serialized form must itself reparse.
		out := RenderString(doc)
		if n := RenderLen(doc); n != len(out) {
			t.Fatalf("RenderLen = %d, rendered %d bytes", n, len(out))
		}
		doc.Clone()
		doc.ByClass("generated-content")
		doc.ByTag("div")
		Parse(out)
	})
}

// FuzzAttrRoundTrip is the renderer's oracle: for any attribute value
// and text, parsing the rendering gives both back unchanged, RenderLen
// is the rendering's length, and the value's delimiter is the quote it
// holds fewer of (a tie takes '"'), so it needs no more entities than
// the other delimiter would.
func FuzzAttrRoundTrip(f *testing.F) {
	f.Add(`{"prompt":"a city","name":"hero"}`, `1 < 2 & 3 > 2`)
	f.Add(`He said "hi" & left`, `it's "quoted"`)
	f.Add(`'single' and "double" and 'more'`, "")
	f.Add(`&amp; &quot; &#39; &lt;`, `&amp;`)
	f.Add("nul\x00cr\rlf\n", "tab\tcr\r\nlf")
	f.Add("\xff\xfe invalid", "\xc3")
	f.Add("", "x")

	f.Fuzz(func(t *testing.T, value, text string) {
		el := NewElement("div", Attribute{Name: "title", Value: value})
		if text != "" {
			el.AppendChild(NewText(text))
		}
		out := RenderString(el)
		if n := RenderLen(el); n != len(out) {
			t.Fatalf("RenderLen = %d, rendered %d bytes: %q", n, len(out), out)
		}
		nodes := ParseFragment(out)
		if len(nodes) != 1 || nodes[0].Type != ElementNode || nodes[0].Data != "div" {
			t.Fatalf("%q parses to %d nodes", out, len(nodes))
		}
		if got, _ := nodes[0].AttrValue("title"); got != value {
			t.Fatalf("%q: value %q, want %q", out, got, value)
		}
		if got := nodes[0].Text(); got != text {
			t.Fatalf("%q: text %q, want %q", out, got, text)
		}
		if value == "" {
			return
		}
		q, other := byte('"'), "'"
		if c := out[len(`<div title=`)]; c == '\'' {
			q, other = c, `"`
		} else if c != '"' {
			t.Fatalf("%q: value delimited by %q", out, c)
		}
		if own, alt := strings.Count(value, string(q)), strings.Count(value, other); own > alt || own == alt && q != '"' {
			t.Fatalf("%q: delimiter %c occurs %d times in the value, the other quote %d", out, q, own, alt)
		}
	})
}
