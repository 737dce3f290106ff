package html

import (
	"strconv"
	"strings"
)

// namedEntities covers the entities that appear in practice on the
// pages SWW processes. Unknown entities pass through verbatim, which
// matches browser behaviour for unterminated ampersands.
var namedEntities = map[string]rune{
	"amp":    '&',
	"lt":     '<',
	"gt":     '>',
	"quot":   '"',
	"apos":   '\'',
	"nbsp":   ' ',
	"copy":   '©',
	"reg":    '®',
	"trade":  '™',
	"hellip": '…',
	"mdash":  '—',
	"ndash":  '–',
	"lsquo":  '‘',
	"rsquo":  '’',
	"ldquo":  '“',
	"rdquo":  '”',
	"deg":    '°',
	"times":  '×',
	"middot": '·',
	"bull":   '•',
	"eacute": 'é',
	"egrave": 'è',
	"uuml":   'ü',
	"ouml":   'ö',
	"auml":   'ä',
	"szlig":  'ß',
	"ccedil": 'ç',
	"aring":  'å',
}

// UnescapeString replaces HTML entities with their characters.
func UnescapeString(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		// Find a terminating ';' within a plausible distance.
		end := -1
		for j := i + 1; j < len(s) && j < i+12; j++ {
			if s[j] == ';' {
				end = j
				break
			}
		}
		if end < 0 {
			b.WriteByte('&')
			i++
			continue
		}
		name := s[i+1 : end]
		if r, ok := decodeEntity(name); ok {
			b.WriteRune(r)
			i = end + 1
			continue
		}
		b.WriteByte('&')
		i++
	}
	return b.String()
}

func decodeEntity(name string) (rune, bool) {
	if name == "" {
		return 0, false
	}
	if name[0] == '#' {
		num := name[1:]
		base := 10
		if len(num) > 1 && (num[0] == 'x' || num[0] == 'X') {
			base = 16
			num = num[1:]
		}
		v, err := strconv.ParseInt(num, base, 32)
		if err != nil || v <= 0 || v > 0x10ffff {
			return 0, false
		}
		return rune(v), true
	}
	r, ok := namedEntities[name]
	return r, ok
}

// EscapeString escapes the five characters that are unsafe in text
// and attribute contexts.
func EscapeString(s string) string {
	if !strings.ContainsAny(s, `&<>"'`) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		if e := escapeOf(s[i]); e != "" {
			b.WriteString(e)
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// escapeOf is the entity EscapeString writes for c, or "" when c is
// written as itself.
func escapeOf(c byte) string {
	switch c {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '"':
		return "&quot;"
	case '\'':
		return "&#39;"
	}
	return ""
}
