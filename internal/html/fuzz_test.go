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
