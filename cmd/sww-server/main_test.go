package main

import (
	"flag"
	"go/parser"
	"go/token"
	"io"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// registeredFlags runs main as far as flag parsing with -h and
// returns the names of the flags it registered.
func registeredFlags(t *testing.T) []string {
	t.Helper()
	savedFlags, savedArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = savedFlags, savedArgs }()
	flag.CommandLine = flag.NewFlagSet("sww-server", flag.PanicOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = []string{"sww-server", "-h"}
	func() {
		defer func() {
			if r := recover(); r != flag.ErrHelp {
				t.Fatalf("main with -h: got %v, want flag.ErrHelp", r)
			}
		}()
		main()
	}()
	var names []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// flagToken matches a -flag at the start of text or after a space,
// bracket, bar, parenthesis or backtick.
var flagToken = regexp.MustCompile("(?:^|[\\s\\[|(`])-([a-z][a-z0-9-]*)")

// flagTokens returns the distinct -flag names in text, sorted.
func flagTokens(text string) []string {
	set := map[string]bool{}
	for _, m := range flagToken.FindAllStringSubmatch(text, -1) {
		set[m[1]] = true
	}
	var out []string
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// usageBlock returns the indented lines that follow "Usage:" in the
// package doc of main.go.
func usageBlock(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	if !ok {
		t.Fatal("package doc has no Usage: block")
	}
	var block []string
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		block = append(block, line)
	}
	return strings.Join(block, "\n")
}

// TestUsageMatchesFlags: the package doc's Usage block names exactly
// the flags the binary registers, and every flag in README's two
// sww-server flag tables is registered.
func TestUsageMatchesFlags(t *testing.T) {
	flags := registeredFlags(t) // sorted, as VisitAll visits
	if doc := flagTokens(usageBlock(t)); !reflect.DeepEqual(doc, flags) {
		t.Errorf("Usage block names %q, binary registers %q", doc, flags)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, f := range flags {
		registered[f] = true
	}
	for _, heading := range []string{"Edge-tier flags", "Origin high-availability flags"} {
		_, after, ok := strings.Cut(string(readme), heading)
		if !ok {
			t.Fatalf("README has no %q table", heading)
		}
		rows := 0
		for _, line := range strings.Split(after, "\n")[1:] {
			if line == "" && rows > 0 {
				break
			}
			if !strings.HasPrefix(line, "| `-") {
				continue
			}
			rows++
			cell := strings.SplitN(line, "|", 3)[1]
			for _, f := range flagTokens(cell) {
				if !registered[f] {
					t.Errorf("README %s lists -%s, which sww-server does not register", heading, f)
				}
			}
		}
		if rows == 0 {
			t.Errorf("README %s: no flag rows found", heading)
		}
	}
}
