package html

import (
	"io"
	"strings"
)

// Render serializes the tree rooted at n to w.
func Render(w io.Writer, n *Node) error {
	_, err := w.Write(renderBytes(n))
	return err
}

// RenderString serializes the tree rooted at n.
func RenderString(n *Node) string { return string(renderBytes(n)) }

// AppendRender appends the serialization of the tree rooted at n to dst.
func AppendRender(dst []byte, n *Node) []byte {
	r := renderer{b: dst}
	r.node(n)
	return r.b
}

// RenderLen returns len(RenderString(n)) without building it.
func RenderLen(n *Node) int {
	r := renderer{counting: true}
	r.node(n)
	return r.n
}

// AppendEscaped appends s to dst escaped as the renderer escapes text:
// the bytes of EscapeString(s), without building it.
func AppendEscaped(dst []byte, s string) []byte {
	r := renderer{b: dst}
	r.escaped(s, 0)
	return r.b
}

// EscapedLen returns len(EscapeString(s)) without building it.
func EscapedLen(s string) int {
	r := renderer{counting: true}
	r.escaped(s, 0)
	return r.n
}

// Segments serializes the tree rooted at root with every node of holes
// left out, cut at each: it returns len(holes)+1 strings such that
// segs[0] + RenderString(holes[0]) + segs[1] + … + segs[len(holes)] is
// RenderString(root), for element holes. A hole's subtree is part of the
// hole. holes must lie under root, in document order, and none inside
// another; Segments panics otherwise.
func Segments(root *Node, holes []*Node) []string {
	r := renderer{cuts: holes, cutAt: make([]int, 0, len(holes)+2)}
	r.cutAt = append(r.cutAt, 0)
	r.node(root)
	if len(r.cuts) > 0 {
		panic("html: Segments: hole outside the tree, out of document order, or inside another hole")
	}
	r.cutAt = append(r.cutAt, len(r.b))
	out := string(r.b) // one allocation, sliced into every segment
	segs := make([]string, len(r.cutAt)-1)
	for i := range segs {
		segs[i] = out[r.cutAt[i]:r.cutAt[i+1]]
	}
	return segs
}

// renderBytes serializes n into a buffer of exactly its length.
func renderBytes(n *Node) []byte {
	return AppendRender(make([]byte, 0, RenderLen(n)), n)
}

// A renderer serializes a tree by appending to b or, when counting, by
// adding up in n the bytes it would have appended. With cuts set it
// skips each of those nodes and records where in b it did (Segments).
type renderer struct {
	b        []byte
	n        int
	counting bool

	cuts  []*Node // holes not reached yet, in document order
	cutAt []int   // offsets in b of the holes passed
}

func (r *renderer) str(s string) {
	if r.counting {
		r.n += len(s)
		return
	}
	r.b = append(r.b, s...)
}

func (r *renderer) byte(c byte) {
	if r.counting {
		r.n++
		return
	}
	r.b = append(r.b, c)
}

// escaped writes EscapeString(s) without building it, except that the
// byte keep (a quote, or 0 for none) is written as itself.
func (r *renderer) escaped(s string, keep byte) {
	last := 0
	for i := 0; i < len(s); i++ {
		if e := escapeOf(s[i]); e != "" && s[i] != keep {
			r.str(s[last:i])
			r.str(e)
			last = i + 1
		}
	}
	r.str(s[last:])
}

// attrQuotes picks the delimiter of an attribute value: the double
// quote, or the single quote when v holds more double quotes than
// single ones. Inside the value only the delimiter needs its entity,
// so the other quote, keep, is written as itself.
func attrQuotes(v string) (q, keep byte) {
	if strings.Count(v, `"`) > strings.Count(v, "'") {
		return '\'', '"'
	}
	return '"', '\''
}

func (r *renderer) node(n *Node) {
	if len(r.cuts) > 0 && n == r.cuts[0] {
		r.cutAt = append(r.cutAt, len(r.b))
		r.cuts = r.cuts[1:]
		return
	}
	switch n.Type {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			r.node(c)
		}

	case DoctypeNode:
		r.str("<!DOCTYPE ")
		r.str(n.Data)
		r.byte('>')

	case CommentNode:
		r.str("<!--")
		r.str(n.Data)
		r.str("-->")

	case TextNode:
		if n.Parent != nil && n.Parent.Type == ElementNode && rawTextElements[n.Parent.Data] {
			r.str(n.Data) // raw text is emitted verbatim
			return
		}
		r.escaped(n.Data, 0)

	case ElementNode:
		r.byte('<')
		r.str(n.Data)
		for _, a := range n.Attr {
			r.byte(' ')
			r.str(a.Name)
			if a.Value != "" || strings.IndexByte(a.Name, '=') >= 0 {
				q, keep := attrQuotes(a.Value)
				r.byte('=')
				r.byte(q)
				r.escaped(a.Value, keep)
				r.byte(q)
			}
		}
		r.byte('>')
		if voidElements[n.Data] {
			return
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			r.node(c)
		}
		r.str("</")
		r.str(n.Data)
		r.byte('>')
	}
}
