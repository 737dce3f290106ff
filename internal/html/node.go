package html

import "strings"

// A NodeType classifies a tree node.
type NodeType int

const (
	// DocumentNode is the synthetic root of a parsed page.
	DocumentNode NodeType = iota
	// ElementNode is a tag with optional children.
	ElementNode
	// TextNode is character data.
	TextNode
	// CommentNode is <!-- ... -->.
	CommentNode
	// DoctypeNode is <!DOCTYPE ...>.
	DoctypeNode
)

// A Node is one node in the document tree.
type Node struct {
	Type NodeType
	// Data is the tag name for elements, the text for text nodes, and
	// the body for comments/doctypes.
	Data string
	Attr []Attribute

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	PrevSibling *Node
	NextSibling *Node
}

// voidElements never have children or end tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"source": true, "track": true, "wbr": true,
}

// NewElement returns a detached element node.
func NewElement(tag string, attrs ...Attribute) *Node {
	return &Node{Type: ElementNode, Data: tag, Attr: attrs}
}

// NewText returns a detached text node.
func NewText(text string) *Node {
	return &Node{Type: TextNode, Data: text}
}

// Attr lookup. ok reports presence.
func (n *Node) AttrValue(name string) (string, bool) {
	for _, a := range n.Attr {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets or replaces an attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attr {
		if a.Name == name {
			n.Attr[i].Value = value
			return
		}
	}
	n.Attr = append(n.Attr, Attribute{Name: name, Value: value})
}

// HasClass reports whether the element's class list contains name.
func (n *Node) HasClass(name string) bool {
	classes, _ := n.AttrValue("class")
	for _, c := range strings.Fields(classes) {
		if c == name {
			return true
		}
	}
	return false
}

// AppendChild attaches c as n's last child. c must be detached.
func (n *Node) AppendChild(c *Node) {
	if c.Parent != nil {
		panic("html: AppendChild of attached node")
	}
	c.Parent = n
	c.PrevSibling = n.LastChild
	if n.LastChild != nil {
		n.LastChild.NextSibling = c
	} else {
		n.FirstChild = c
	}
	n.LastChild = c
}

// RemoveChild detaches c from n.
func (n *Node) RemoveChild(c *Node) {
	if c.Parent != n {
		panic("html: RemoveChild of non-child")
	}
	if c.PrevSibling != nil {
		c.PrevSibling.NextSibling = c.NextSibling
	} else {
		n.FirstChild = c.NextSibling
	}
	if c.NextSibling != nil {
		c.NextSibling.PrevSibling = c.PrevSibling
	} else {
		n.LastChild = c.PrevSibling
	}
	c.Parent, c.PrevSibling, c.NextSibling = nil, nil, nil
}

// ReplaceChild swaps old (a child of n) for repl (detached).
func (n *Node) ReplaceChild(old, repl *Node) {
	if old.Parent != n {
		panic("html: ReplaceChild of non-child")
	}
	if repl.Parent != nil {
		panic("html: ReplaceChild with attached node")
	}
	repl.Parent = n
	repl.PrevSibling = old.PrevSibling
	repl.NextSibling = old.NextSibling
	if old.PrevSibling != nil {
		old.PrevSibling.NextSibling = repl
	} else {
		n.FirstChild = repl
	}
	if old.NextSibling != nil {
		old.NextSibling.PrevSibling = repl
	} else {
		n.LastChild = repl
	}
	old.Parent, old.PrevSibling, old.NextSibling = nil, nil, nil
}

// Children returns the direct children as a slice (snapshot).
func (n *Node) Children() []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		out = append(out, c)
	}
	return out
}

// Walk visits n and all descendants in document order. Returning
// false from fn prunes the subtree below the visited node.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.Walk(fn)
	}
}

// Find returns the first descendant element (including n itself)
// satisfying pred, in document order.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m.Type == ElementNode && pred(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// FindAll returns every descendant element satisfying pred.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Type == ElementNode && pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// ByTag returns all elements with the given tag name.
func (n *Node) ByTag(tag string) []*Node {
	return n.FindAll(func(m *Node) bool { return m.Data == tag })
}

// ByClass returns all elements whose class list contains name.
func (n *Node) ByClass(name string) []*Node {
	return n.FindAll(func(m *Node) bool { return m.HasClass(name) })
}

// ByID returns the first element with the given id, or nil.
func (n *Node) ByID(id string) *Node {
	return n.Find(func(m *Node) bool {
		v, ok := m.AttrValue("id")
		return ok && v == id
	})
}

// Text returns the concatenated text content of the subtree.
func (n *Node) Text() string {
	var b strings.Builder
	n.Walk(func(m *Node) bool {
		if m.Type == TextNode {
			b.WriteString(m.Data)
		}
		return true
	})
	return b.String()
}

// Clone deep-copies the subtree rooted at n. The copy is detached.
func (n *Node) Clone() *Node {
	c := &Node{Type: n.Type, Data: n.Data}
	if n.Attr != nil {
		c.Attr = append([]Attribute(nil), n.Attr...)
	}
	for k := n.FirstChild; k != nil; k = k.NextSibling {
		c.AppendChild(k.Clone())
	}
	return c
}
