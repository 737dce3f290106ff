// Package html provides an HTML tokenizer, a DOM-like node tree, a
// parser, and a serializer, sufficient for the SWW page pipeline: it
// round-trips real-world markup, exposes attributes for the
// generated-content divs of paper §4.1, and supports structural
// rewriting (replacing prompt divs with generated media references).
//
// It is deliberately not a full WHATWG-conformant parser: error
// recovery is simple (unclosed tags close at their parent's end) and
// no implicit tbody/head/body synthesis is performed. Markup produced
// by the workload generators and by real static sites parses
// faithfully.
package html

import (
	"fmt"
	"strings"
)

// A TokenType classifies a lexer token.
type TokenType int

const (
	// ErrorToken means the tokenizer encountered the end of input.
	ErrorToken TokenType = iota
	// TextToken is a run of character data.
	TextToken
	// StartTagToken is <name attr="v">.
	StartTagToken
	// EndTagToken is </name>.
	EndTagToken
	// SelfClosingTagToken is <name/>.
	SelfClosingTagToken
	// CommentToken is <!-- ... -->.
	CommentToken
	// DoctypeToken is <!DOCTYPE ...>.
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case ErrorToken:
		return "Error"
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingTagToken:
		return "SelfClosingTag"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	}
	return fmt.Sprintf("TokenType(%d)", int(t))
}

// An Attribute is a name="value" pair on a tag.
type Attribute struct {
	Name, Value string
}

// A Token is one lexical element of the input.
type Token struct {
	Type TokenType
	// Data is the tag name (for tags), text content (for text), or
	// comment/doctype body.
	Data string
	Attr []Attribute
}

// AttrValue returns the value of the named attribute and whether it
// is present.
func (t Token) AttrValue(name string) (string, bool) {
	for _, a := range t.Attr {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// rawTextElements are elements whose content is not markup.
var rawTextElements = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
}

// A Tokenizer splits HTML input into tokens.
type Tokenizer struct {
	src string
	pos int
	// rawEnd, when nonempty, means we are inside a raw text element
	// and must scan for its specific end tag.
	rawEnd string
}

// NewTokenizer returns a tokenizer over src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token. ErrorToken signals end of input.
func (z *Tokenizer) Next() Token {
	if z.pos >= len(z.src) {
		return Token{Type: ErrorToken}
	}
	if z.rawEnd != "" {
		return z.rawText()
	}
	if z.src[z.pos] == '<' {
		return z.tag()
	}
	return z.text()
}

func (z *Tokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: UnescapeString(z.src[start:z.pos])}
}

// rawText scans until the matching </tag> of a raw text element.
func (z *Tokenizer) rawText() Token {
	idx := indexEndTag(z.src[z.pos:], z.rawEnd)
	if idx < 0 {
		data := z.src[z.pos:]
		z.pos = len(z.src)
		z.rawEnd = ""
		return Token{Type: TextToken, Data: data}
	}
	if idx == 0 {
		// Emit the end tag itself.
		z.rawEnd = ""
		return z.tag()
	}
	data := z.src[z.pos : z.pos+idx]
	z.pos += idx
	z.rawEnd = ""
	return Token{Type: TextToken, Data: data}
}

// indexEndTag is the offset in s of the first "</"+name, name matched
// ASCII-case-insensitively (name is lower case), or -1. Matching in s
// itself keeps the offset an offset into s: lowering s first would move
// it past every byte that lowers to a different length (invalid UTF-8
// lowers to the three bytes of U+FFFD).
func indexEndTag(s, name string) int {
	for i := 0; ; i++ {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j
		if hasPrefixFold(s[i+2:], name) {
			return i
		}
	}
}

// hasPrefixFold reports whether s begins with prefix, a lower-case
// ASCII word, matching s's ASCII letters in either case.
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

func (z *Tokenizer) tag() Token {
	// Invariant: src[pos] == '<'.
	rest := z.src[z.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return z.comment()
	case strings.HasPrefix(rest, "<!") || strings.HasPrefix(rest, "<?"):
		return z.markupDecl()
	case strings.HasPrefix(rest, "</"):
		return z.endTag()
	}
	if len(rest) < 2 || !isNameStart(rest[1]) {
		// A bare '<' is text.
		z.pos++
		return Token{Type: TextToken, Data: "<"}
	}
	return z.startTag()
}

func (z *Tokenizer) comment() Token {
	z.pos += len("<!--")
	idx := strings.Index(z.src[z.pos:], "-->")
	var data string
	if idx < 0 {
		data = z.src[z.pos:]
		z.pos = len(z.src)
	} else {
		data = z.src[z.pos : z.pos+idx]
		z.pos += idx + len("-->")
	}
	return Token{Type: CommentToken, Data: data}
}

func (z *Tokenizer) markupDecl() Token {
	start := z.pos
	idx := strings.IndexByte(z.src[z.pos:], '>')
	if idx < 0 {
		z.pos = len(z.src)
		return Token{Type: CommentToken, Data: z.src[start:]}
	}
	decl := z.src[start+2 : start+idx]
	z.pos += idx + 1
	if len(decl) >= 7 && strings.EqualFold(decl[:7], "DOCTYPE") {
		return Token{Type: DoctypeToken, Data: strings.TrimSpace(decl[7:])}
	}
	return Token{Type: CommentToken, Data: decl}
}

func (z *Tokenizer) endTag() Token {
	z.pos += 2
	name := z.readName()
	// Skip anything up to '>' (stray attributes on end tags are
	// ignored, as in browsers).
	for z.pos < len(z.src) && z.src[z.pos] != '>' {
		z.pos++
	}
	if z.pos < len(z.src) {
		z.pos++
	}
	return Token{Type: EndTagToken, Data: name}
}

func (z *Tokenizer) startTag() Token {
	z.pos++ // consume '<'
	name := z.readName()
	tok := Token{Type: StartTagToken, Data: name}
	for {
		z.skipSpace()
		if z.pos >= len(z.src) {
			break
		}
		c := z.src[z.pos]
		if c == '>' {
			z.pos++
			break
		}
		if c == '/' {
			z.pos++
			z.skipSpace()
			if z.pos < len(z.src) && z.src[z.pos] == '>' {
				z.pos++
				tok.Type = SelfClosingTagToken
			}
			break
		}
		attr, ok := z.readAttribute()
		if !ok {
			break
		}
		tok.Attr = append(tok.Attr, attr)
	}
	if tok.Type == StartTagToken && rawTextElements[name] {
		z.rawEnd = name
	}
	return tok
}

func (z *Tokenizer) readName() string {
	start := z.pos
	for z.pos < len(z.src) && isNameChar(z.src[z.pos]) {
		z.pos++
	}
	return strings.ToLower(z.src[start:z.pos])
}

func (z *Tokenizer) readAttribute() (Attribute, bool) {
	start := z.pos
	for z.pos < len(z.src) {
		c := z.src[z.pos]
		if c == '=' || c == '>' || c == '/' || isSpace(c) {
			break
		}
		z.pos++
	}
	if z.pos == start {
		// Unparseable character; skip it to guarantee progress.
		z.pos++
		return Attribute{}, false
	}
	attr := Attribute{Name: strings.ToLower(z.src[start:z.pos])}
	z.skipSpace()
	if z.pos >= len(z.src) || z.src[z.pos] != '=' {
		return attr, true // boolean attribute
	}
	z.pos++
	z.skipSpace()
	if z.pos >= len(z.src) {
		return attr, true
	}
	switch q := z.src[z.pos]; q {
	case '"', '\'':
		z.pos++
		vstart := z.pos
		for z.pos < len(z.src) && z.src[z.pos] != q {
			z.pos++
		}
		attr.Value = UnescapeString(z.src[vstart:z.pos])
		if z.pos < len(z.src) {
			z.pos++
		}
	default:
		vstart := z.pos
		for z.pos < len(z.src) && !isSpace(z.src[z.pos]) && z.src[z.pos] != '>' {
			z.pos++
		}
		attr.Value = UnescapeString(z.src[vstart:z.pos])
	}
	return attr, true
}

func (z *Tokenizer) skipSpace() {
	for z.pos < len(z.src) && isSpace(z.src[z.pos]) {
		z.pos++
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}
