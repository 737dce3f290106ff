package metrics

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzWordCount: the counter that builds no tokens counts what
// Tokenize returns, and Tokenize returns the tokens of a FieldsFunc
// split of the lowered string, the tokenizer it replaced. "İstanbul"
// seeds it because lowering can change a rune: Go lowers U+0130 by its
// simple mapping to a plain "i" (not the "i" + U+0307 of full case
// folding), which here keeps the word whole.
func FuzzWordCount(f *testing.F) {
	f.Add("İstanbul")
	f.Add("Hello, World! It's 42°C...")
	f.Add("ǅemal ΣΊΣΥΦΟΣ Ⅻ ½ ⓐⒷ")
	f.Add("invalid \xff\xfe utf-8 \xc3")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		want := strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsNumber(r)
		})
		got := Tokenize(s)
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
			}
		}
		if n := WordCount(s); n != len(want) {
			t.Fatalf("WordCount(%q) = %d, want %d", s, n, len(want))
		}
	})
}
