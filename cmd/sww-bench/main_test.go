package main

import (
	"bytes"
	"flag"
	"go/parser"
	"go/token"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"sww/internal/experiments"
)

// packageDoc returns the package doc of main.go.
func packageDoc(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	return f.Doc.Text()
}

// TestUsageListsEveryExperiment: the package doc's -only list names
// exactly the registry's keys, in its order, and an unknown key runs
// nothing, exits 2 and lists every key.
func TestUsageListsEveryExperiment(t *testing.T) {
	var keys []string
	for _, e := range experiments.Experiments {
		keys = append(keys, e.Key)
	}

	_, after, ok := strings.Cut(packageDoc(t), "[-only ")
	list, _, closed := strings.Cut(after, "]")
	if !ok || !closed {
		t.Fatal("package doc has no [-only ...] list")
	}
	if doc := strings.Split(strings.Join(strings.Fields(list), ""), "|"); !slices.Equal(doc, keys) {
		t.Errorf("Usage lists -only %q, the registry holds %q", doc, keys)
	}

	var stdout, stderr bytes.Buffer
	if code := run("no-such-key", true, &stdout, &stderr); code != 2 {
		t.Errorf("unknown key exited %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown key printed a report:\n%s", stdout.String())
	}
	_, listed, _ := strings.Cut(stderr.String(), "one of:")
	if got := strings.Fields(listed); !slices.Equal(got, keys) {
		t.Errorf("unknown key lists %q, want %q", got, keys)
	}
}

// TestUsageMatchesFlags: the package doc's Usage block names exactly
// the flags the binary registers.
func TestUsageMatchesFlags(t *testing.T) {
	// Run main as far as flag parsing with -h.
	savedFlags, savedArgs := flag.CommandLine, os.Args
	defer func() { flag.CommandLine, os.Args = savedFlags, savedArgs }()
	flag.CommandLine = flag.NewFlagSet("sww-bench", flag.PanicOnError)
	flag.CommandLine.SetOutput(io.Discard)
	os.Args = []string{"sww-bench", "-h"}
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

	_, after, ok := strings.Cut(packageDoc(t), "Usage:\n\n")
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
	if !slices.Equal(doc, flags) {
		t.Errorf("Usage block names %q, binary registers %q", doc, flags)
	}
}
