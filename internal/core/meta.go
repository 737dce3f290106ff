// Package core implements the SWW engine of the paper: the
// generated-content page representation (§4.1), the client-side
// pipeline that turns prompt divs into media, the generative server
// and client (§5) built on internal/http2's capability negotiation,
// and the compression/energy accounting of §6.
package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"sww/internal/html"
)

// ContentType identifies what a generated-content division produces.
// The prototype supports "img" and "txt" (§4.1).
type ContentType string

const (
	// ContentImage is a text-to-image placeholder.
	ContentImage ContentType = "img"
	// ContentText is a text-to-text expansion placeholder.
	ContentText ContentType = "txt"
	// ContentUpscale is a §2.2 upscaling placeholder: the server
	// stores and ships a low-resolution image; the client synthesizes
	// the high-resolution version ("content upscaling is also usually
	// faster than content generation").
	ContentUpscale ContentType = "img-upscale"
)

// GeneratedClass is the HTML class that marks a generated-content
// division (§4.1: "a class called generated content which has two
// fields: content-type and metadata").
const GeneratedClass = "generated-content"

// Attribute names on a generated-content div.
const (
	attrContentType = "content-type"
	attrMetadata    = "metadata"
)

// MaxMetadataBytes caps the metadata attribute of a single
// generated-content div. The paper's worst case is ~428 B of prompt
// and dimensions; 16 KiB leaves two orders of magnitude of headroom
// for bullet-heavy text placeholders while keeping a hostile page
// from smuggling megabytes through json.Unmarshal per div.
const MaxMetadataBytes = 16 << 10

// Bounds on the numeric metadata fields. They exist because metadata
// arrives from the network and feeds allocations: Width×Height sizes
// the synthesized image buffer, Steps multiplies diffusion passes,
// Scale squares the upscale output, Words sizes text expansion.
const (
	MaxDimension = 4096
	MaxSteps     = 1000
	MaxScale     = 16
	MaxWords     = 1 << 16
	maxBullets   = 256
)

// A MetadataError reports a generated-content div whose metadata is
// malformed, oversized, or out of bounds. Callers degrade the div to
// traditional content (FindPlaceholders leaves it in place in the
// document) rather than treating the page as fatal.
type MetadataError struct {
	Name   string // content name, when it was parseable
	Reason string
	Err    error // underlying cause (e.g. a JSON syntax error), may be nil
}

func (e *MetadataError) Error() string {
	s := "core: metadata"
	if e.Name != "" {
		s += " for " + strconv.Quote(e.Name)
	}
	s += ": " + e.Reason
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

func (e *MetadataError) Unwrap() error { return e.Err }

func metaErrf(name, format string, args ...any) *MetadataError {
	return &MetadataError{Name: name, Reason: fmt.Sprintf(format, args...)}
}

// Metadata is the JSON dictionary carried by a generated-content div.
// "Examples of metadata fields include the prompt or width and height
// for images. These metadata fields vary between different types of
// content." (§4.1)
type Metadata struct {
	// Prompt drives image generation and, for text, optionally
	// prefixes the bullets.
	Prompt string `json:"prompt,omitempty"`

	// Name labels the content; generated image files are stored
	// under it.
	Name string `json:"name,omitempty"`

	// Width and Height apply to images.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`

	// Steps overrides the diffusion step count (0 = default).
	Steps int `json:"steps,omitempty"`

	// Bullets carry the §2.1 lossless text form: "route-specific text
	// is ... turned into bullet points that can be used in a prompt
	// to generate the relevant text without loss of information".
	Bullets []string `json:"bullets,omitempty"`

	// Words is the requested expansion length for text content.
	Words int `json:"words,omitempty"`

	// OriginalBytes records the size of the media this placeholder
	// replaced, for compression accounting against the original.
	OriginalBytes int `json:"original_bytes,omitempty"`

	// Src is the low-resolution source asset for upscale content.
	Src string `json:"src,omitempty"`

	// Scale is the integer upscale factor (≥2) for upscale content.
	Scale int `json:"scale,omitempty"`

	// ExpectedAlignment, when nonzero, is the §7 trust mechanism: the
	// minimum prompt–content alignment the author attests the prompt
	// achieves. Clients verify their generation against it and flag
	// content that diverged ("verifying generated content on end-user
	// devices").
	ExpectedAlignment float64 `json:"expected_alignment,omitempty"`
}

// A GeneratedContent is the decoded form of one placeholder.
type GeneratedContent struct {
	Type ContentType
	Meta Metadata
}

// WireSize returns the number of bytes this placeholder's attribute
// values cost on the wire: the JSON metadata plus the content-type
// value. The JSON holds more double quotes than single ones, so the
// renderer delimits it with single quotes and it crosses as itself
// (TestPlaceholderMetadataBytes). Not counted: the attribute names and
// delimiters, and the 4 bytes more that each single quote inside the
// JSON costs, written as &#39;.
func (g GeneratedContent) WireSize() int {
	b, _ := json.Marshal(g.Meta)
	return len(b) + len(g.Type)
}

// ContentSize returns the paper's metadata accounting: the raw
// information content without JSON syntax. For images this is
// prompt + name + 4 B each for width and height (the paper's worst
// case: 400 + 20 + 4 + 4 = 428 B); for text it is the bullets plus
// name plus a 4 B length field. Figure 2's 8.92 kB and the Table 2
// metadata column use this measure; WireSize counts the JSON the
// prototype ships in its place.
func (g GeneratedContent) ContentSize() int {
	switch g.Type {
	case ContentImage:
		return len(g.Meta.Prompt) + len(g.Meta.Name) + 8
	case ContentText:
		n := len(g.Meta.Name) + 4
		for _, b := range g.Meta.Bullets {
			n += len(b)
		}
		return n + len(g.Meta.Prompt)
	case ContentUpscale:
		return len(g.Meta.Src) + len(g.Meta.Name) + 4
	}
	return 0
}

// Div renders the placeholder as its HTML division (Figure 1, top).
func (g GeneratedContent) Div() (*html.Node, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	meta, err := json.Marshal(g.Meta)
	if err != nil {
		return nil, err
	}
	return html.NewElement("div",
		html.Attribute{Name: "class", Value: GeneratedClass},
		html.Attribute{Name: attrContentType, Value: string(g.Type)},
		html.Attribute{Name: attrMetadata, Value: string(meta)},
	), nil
}

func (g GeneratedContent) validate() error {
	m := g.Meta
	switch {
	case m.Width < 0 || m.Width > MaxDimension || m.Height < 0 || m.Height > MaxDimension:
		return metaErrf(m.Name, "dimensions %dx%d outside [0, %d]", m.Width, m.Height, MaxDimension)
	case m.Steps < 0 || m.Steps > MaxSteps:
		return metaErrf(m.Name, "steps %d outside [0, %d]", m.Steps, MaxSteps)
	case m.Scale < 0 || m.Scale > MaxScale:
		return metaErrf(m.Name, "scale %d outside [0, %d]", m.Scale, MaxScale)
	case m.Words < 0 || m.Words > MaxWords:
		return metaErrf(m.Name, "words %d outside [0, %d]", m.Words, MaxWords)
	case m.OriginalBytes < 0:
		return metaErrf(m.Name, "negative original_bytes %d", m.OriginalBytes)
	case len(m.Bullets) > maxBullets:
		return metaErrf(m.Name, "%d bullets, cap %d", len(m.Bullets), maxBullets)
	}
	switch g.Type {
	case ContentImage:
		if m.Prompt == "" {
			return metaErrf(m.Name, "image content has no prompt")
		}
	case ContentText:
		if len(m.Bullets) == 0 && m.Prompt == "" {
			return metaErrf(m.Name, "text content has neither bullets nor prompt")
		}
	case ContentUpscale:
		if m.Src == "" {
			return metaErrf(m.Name, "upscale content has no src")
		}
		if m.Scale < 2 {
			return metaErrf(m.Name, "upscale scale %d, want ≥2", m.Scale)
		}
	default:
		return metaErrf(m.Name, "unsupported content type %q", g.Type)
	}
	return nil
}

// ParseGeneratedDiv decodes a generated-content div. Metadata
// failures — missing or oversized attribute, malformed JSON, fields
// outside their bounds — return a *MetadataError; the div itself is
// untouched, so callers that skip the error render it as traditional
// content.
func ParseGeneratedDiv(n *html.Node) (GeneratedContent, error) {
	var g GeneratedContent
	if n.Type != html.ElementNode || !n.HasClass(GeneratedClass) {
		return g, fmt.Errorf("core: node is not a generated-content div")
	}
	ct, ok := n.AttrValue(attrContentType)
	if !ok {
		return g, &MetadataError{Reason: "missing content-type attribute"}
	}
	g.Type = ContentType(strings.ToLower(ct))
	raw, ok := n.AttrValue(attrMetadata)
	if !ok {
		return g, &MetadataError{Reason: "missing metadata attribute"}
	}
	if len(raw) > MaxMetadataBytes {
		return g, metaErrf("", "metadata is %d bytes, cap %d", len(raw), MaxMetadataBytes)
	}
	if err := json.Unmarshal([]byte(raw), &g.Meta); err != nil {
		return g, &MetadataError{Name: g.Meta.Name, Reason: "bad metadata JSON", Err: err}
	}
	if err := g.validate(); err != nil {
		return g, err
	}
	return g, nil
}

// A Placeholder pairs a generated-content div in a document with its
// decoded metadata.
type Placeholder struct {
	Node    *html.Node
	Content GeneratedContent
}

// FindPlaceholders extracts every generated-content division under
// root, in document order. Divs with malformed metadata are returned
// in the error slice but do not abort extraction (the page must still
// render).
func FindPlaceholders(root *html.Node) ([]Placeholder, []error) {
	var out []Placeholder
	var errs []error
	for _, n := range root.ByClass(GeneratedClass) {
		gc, err := ParseGeneratedDiv(n)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out = append(out, Placeholder{Node: n, Content: gc})
	}
	return out, errs
}
