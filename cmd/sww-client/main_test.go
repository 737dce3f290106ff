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

// TestUsageMatchesFlags: the package doc's Usage block names exactly
// the flags the binary registers.
func TestUsageMatchesFlags(t *testing.T) {
	// Run main as far as flag parsing with -h.
	savedFlags, savedArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = savedFlags, savedArgs }()
	flag.CommandLine = flag.NewFlagSet("sww-client", flag.PanicOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = []string{"sww-client", "-h"}
	func() {
		defer func() {
			if r := recover(); r != flag.ErrHelp {
				t.Fatalf("main with -h: got %v, want flag.ErrHelp", r)
			}
		}()
		main()
	}()
	var flags []string
	flag.CommandLine.VisitAll(func(f *flag.Flag) { flags = append(flags, f.Name) })

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(f.Doc.Text(), "Usage:\n\n")
	if !ok {
		t.Fatal("package doc has no Usage: block")
	}
	set := map[string]bool{}
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		for _, m := range regexp.MustCompile(`(?:^|[\s\[|])-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(line, -1) {
			set[m[1]] = true
		}
	}
	var doc []string
	for n := range set {
		doc = append(doc, n)
	}
	sort.Strings(doc)
	if !reflect.DeepEqual(doc, flags) {
		t.Errorf("Usage block names %q, binary registers %q", doc, flags)
	}
}
