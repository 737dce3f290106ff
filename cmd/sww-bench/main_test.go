package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"sww/internal/experiments"
)

// TestUsageListsEveryExperiment: the package doc's -only list names
// exactly the registry's keys, in its order, and an unknown key runs
// nothing, exits 2 and lists every key.
func TestUsageListsEveryExperiment(t *testing.T) {
	var keys []string
	for _, e := range experiments.Experiments {
		keys = append(keys, e.Key)
	}

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(f.Doc.Text(), "[-only ")
	list, _, closed := strings.Cut(after, "]")
	if !ok || !closed {
		t.Fatal("package doc has no [-only ...] list")
	}
	if doc := strings.Split(strings.Join(strings.Fields(list), ""), "|"); !slices.Equal(doc, keys) {
		t.Errorf("Usage lists -only %q, the registry holds %q", doc, keys)
	}

	var stdout, stderr bytes.Buffer
	if code := run("no-such-key", true, "", &stdout, &stderr); code != 2 {
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
