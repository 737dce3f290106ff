// Package convert implements paper §4.2, "Webpage Creation and
// Conversion": turning existing traditional webpages into SWW form.
// "A simple script that goes over a webpage can identify content,
// call a media converter to turn the object into a prompt, and
// replace the existing object with a generated content object."
//
// The two §4.2 concerns are modelled explicitly:
//
//   - *Prompt inversion quality.* The paper used a GPT-4V-class
//     image-to-text model; here Invert derives the prompt from the
//     information a real page carries about an image (alt text,
//     caption, file name — the same signal AlDahoul et al. exploit),
//     and reports a fidelity estimate that drops when that signal is
//     thin. Pages with empty alt text convert poorly, exactly like
//     the paper's "quality of the conversion" limitation.
//
//   - *Identifying what must stay unique.* CMS tagging (§4.2's
//     "one-bit flag ... associated with every linked file") is
//     honored first; heuristics cover untagged content.
package convert

import (
	"fmt"
	"strings"

	"sww/internal/core"
	"sww/internal/html"
	"sww/internal/metrics"
)

// CMS tag attribute and values (§4.2: "The feature would tag every
// content item as generatable or unique.").
const (
	TagAttr        = "data-sww"
	TagGeneratable = "generatable"
	TagUnique      = "unique"
)

// An InvertedPrompt is the result of prompt inversion on one image.
type InvertedPrompt struct {
	Prompt string
	// Fidelity estimates how well a regeneration will match the
	// original, in [0,1]; it grows with the richness of the available
	// description (§4.2: conversion quality is the first limitation).
	Fidelity float64
}

// Invert derives a generation prompt for an <img> element from the
// page's own description of it.
func Invert(img *html.Node) InvertedPrompt {
	alt, _ := img.AttrValue("alt")
	var caption string
	if fig := enclosingFigure(img); fig != nil {
		for _, fc := range fig.ByTag("figcaption") {
			caption = strings.TrimSpace(fc.Text())
		}
	}
	src, _ := img.AttrValue("src")
	fileHint := fileNameHint(src)

	parts := make([]string, 0, 3)
	for _, p := range []string{alt, caption, fileHint} {
		if p = strings.TrimSpace(p); p != "" {
			parts = append(parts, p)
		}
	}
	prompt := strings.Join(parts, ", ")
	words := len(metrics.ContentWords(prompt))
	fidelity := 0.15 + 0.08*float64(words)
	if fidelity > 0.9 {
		fidelity = 0.9
	}
	if prompt == "" {
		prompt = "a photograph"
		fidelity = 0.05
	} else {
		prompt += ", detailed photograph"
	}
	return InvertedPrompt{Prompt: prompt, Fidelity: fidelity}
}

func enclosingFigure(n *html.Node) *html.Node {
	for p := n.Parent; p != nil; p = p.Parent {
		if p.Type == html.ElementNode && p.Data == "figure" {
			return p
		}
	}
	return nil
}

// fileNameHint turns "/images/alpine_lake-sunset.jpg" into
// "alpine lake sunset".
func fileNameHint(src string) string {
	if src == "" {
		return ""
	}
	base := src
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	base = strings.Map(func(r rune) rune {
		switch r {
		case '-', '_', '+', '%':
			return ' '
		}
		return r
	}, base)
	// Pure identifiers (img0041) carry no semantic signal.
	if strings.IndexFunc(base, func(r rune) bool { return r >= 'a' && r <= 'z' }) < 0 {
		return ""
	}
	if len(strings.Fields(base)) == 1 && len(base) <= 4 {
		return ""
	}
	return strings.ToLower(strings.TrimSpace(base))
}

// SummarizeText turns a prose block into lossless-ish bullet points:
// one bullet per sentence, stopword-trimmed but content-preserving.
// This is the §2.1 transformation ("turned into bullet points that
// can be used in a prompt to generate the relevant text without loss
// of information").
func SummarizeText(text string) (bullets []string, words int) {
	words = metrics.WordCount(text)
	for _, s := range splitSentences(text) {
		cw := metrics.ContentWords(s)
		if len(cw) == 0 {
			continue
		}
		bullets = append(bullets, strings.Join(cw, " "))
	}
	return bullets, words
}

func splitSentences(text string) []string {
	var out []string
	start := 0
	for i := 0; i < len(text); i++ {
		if text[i] == '.' || text[i] == '!' || text[i] == '?' {
			if s := strings.TrimSpace(text[start : i+1]); s != "" {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	if s := strings.TrimSpace(text[start:]); s != "" {
		out = append(out, s)
	}
	return out
}

// Options tune the conversion pass.
type Options struct {
	// MinImageWords: images whose inverted prompt has fewer content
	// words stay unique (too little signal to regenerate, §4.2's
	// second limitation).
	MinImageWords int

	// MinTextWords: prose blocks shorter than this stay as-is (the
	// bullet form would not be smaller).
	MinTextWords int
}

// DefaultOptions matches the prototype's behaviour.
func DefaultOptions() Options {
	return Options{MinImageWords: 3, MinTextWords: 60}
}

// imageSide is a converted image's width and height where its img tag
// gives none.
const imageSide = 256

// A Report summarizes one conversion pass.
type Report struct {
	ImagesConverted int
	ImagesKept      int
	TextConverted   int
	TextKept        int

	// BytesBefore/BytesAfter are the page HTML sizes (excluding
	// linked media, which the compression accounting covers).
	BytesBefore, BytesAfter int

	// MeanFidelity averages the inversion fidelity of converted
	// images.
	MeanFidelity float64
}

// Convert rewrites doc in place into SWW form and returns a report.
// Elements tagged data-sww="unique" are never converted; elements
// tagged "generatable" always are; untagged content falls to the
// heuristics. origSizes, when non-nil, maps img src to the original
// media size for compression accounting.
func Convert(doc *html.Node, opts Options, origSizes map[string]int) *Report {
	rep := &Report{BytesBefore: len(html.RenderString(doc))}
	var fidelities []float64

	for _, img := range doc.ByTag("img") {
		tag, _ := img.AttrValue(TagAttr)
		if tag == TagUnique {
			rep.ImagesKept++
			continue
		}
		inv := Invert(img)
		if tag != TagGeneratable && len(metrics.ContentWords(inv.Prompt)) < opts.MinImageWords {
			rep.ImagesKept++
			continue
		}
		src, _ := img.AttrValue("src")
		gc := core.GeneratedContent{
			Type: core.ContentImage,
			Meta: core.Metadata{
				Prompt:        inv.Prompt,
				Name:          nameFromSrc(src, rep.ImagesConverted),
				Width:         attrInt(img, "width", imageSide),
				Height:        attrInt(img, "height", imageSide),
				OriginalBytes: origSizes[src],
			},
		}
		div, err := gc.Div()
		if err != nil {
			rep.ImagesKept++
			continue
		}
		img.Parent.ReplaceChild(img, div)
		rep.ImagesConverted++
		fidelities = append(fidelities, inv.Fidelity)
	}

	for _, p := range doc.ByTag("p") {
		tag, _ := p.AttrValue(TagAttr)
		if tag == TagUnique {
			rep.TextKept++
			continue
		}
		text := strings.TrimSpace(p.Text())
		words := metrics.WordCount(text)
		if tag != TagGeneratable && words < opts.MinTextWords {
			rep.TextKept++
			continue
		}
		bullets, _ := SummarizeText(text)
		if len(bullets) == 0 {
			rep.TextKept++
			continue
		}
		gc := core.GeneratedContent{
			Type: core.ContentText,
			Meta: core.Metadata{
				Name:          fmt.Sprintf("text-%d", rep.TextConverted),
				Bullets:       bullets,
				Words:         words,
				OriginalBytes: len(text),
			},
		}
		div, err := gc.Div()
		if err != nil {
			rep.TextKept++
			continue
		}
		p.Parent.ReplaceChild(p, div)
		rep.TextConverted++
	}

	rep.BytesAfter = len(html.RenderString(doc))
	rep.MeanFidelity = metrics.Mean(fidelities)
	return rep
}

func nameFromSrc(src string, i int) string {
	hint := fileNameHint(src)
	if hint == "" {
		return fmt.Sprintf("image-%d", i)
	}
	return strings.ReplaceAll(hint, " ", "-")
}

func attrInt(n *html.Node, name string, def int) int {
	v, ok := n.AttrValue(name)
	if !ok {
		return def
	}
	x := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			return def
		}
		x = x*10 + int(c-'0')
	}
	if x == 0 {
		return def
	}
	return x
}
