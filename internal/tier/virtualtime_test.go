//go:build !goexperiment.synctest

package tier

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// bubblePackages are the packages with bubble files (`//go:build
// goexperiment.synctest`, tests named TestBubble…).
var bubblePackages = []string{
	"sww/internal/cdn",
	"sww/internal/core",
	"sww/internal/http2",
	"sww/internal/overload",
	"sww/internal/tier",
}

// TestVirtualTime runs the bubbles of every package in bubblePackages
// in one child `go test -json` under GOEXPERIMENT=synctest, which Go
// 1.24 needs to build them, so that a plain `go test ./...` runs them
// too; a race build passes -race on to the child. Each bubble the child
// ran is reported as the subtest <pkg>/<TestBubble…>, and each of its
// subtests below that, failing with its own output; a package that ran
// no bubble (it did not build, or its bubbles are gone) fails its <pkg>
// subtest with the child's output. The child is built with the
// experiment on, so this file is not in it and cannot recurse.
func TestVirtualTime(t *testing.T) {
	args := []string{"test", "-json", "-count=1", "-run", "Bubble"}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	args = append(args, bubblePackages...)
	cmdline := "GOEXPERIMENT=synctest go " + strings.Join(args, " ")
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	out, err := cmd.CombinedOutput()

	// The child's events, one JSON object a line; a line that is not one
	// (a build error) stays only in out. A node is a package (test "")
	// or a test in it, subtests included, keyed as the child names them.
	type node struct{ pkg, test string }
	kids := map[node][]node{}
	outputs, failed := map[node]*strings.Builder{}, map[node]bool{}
	for line := range bytes.Lines(out) {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		n := node{ev.Package, ev.Test}
		if outputs[n] == nil {
			outputs[n] = &strings.Builder{}
			if n.test != "" {
				parent := node{n.pkg, ""}
				if i := strings.LastIndex(n.test, "/"); i >= 0 {
					parent.test = n.test[:i]
				}
				kids[parent] = append(kids[parent], n)
			}
		}
		outputs[n].WriteString(ev.Output)
		failed[n] = failed[n] || ev.Action == "fail"
	}
	// report replays n's tests as subtests of t, each failing with its
	// own output.
	var report func(t *testing.T, n node)
	report = func(t *testing.T, n node) {
		for _, k := range kids[n] {
			t.Run(path.Base(k.test), func(t *testing.T) {
				if failed[k] {
					t.Errorf("%s:\n%s", cmdline, outputs[k])
				}
				report(t, k)
			})
		}
	}
	for _, pkg := range bubblePackages {
		t.Run(path.Base(pkg), func(t *testing.T) {
			n := node{pkg, ""}
			report(t, n)
			if len(kids[n]) == 0 || failed[n] && !t.Failed() {
				t.Fatalf("%s: %s failed or ran no bubble\n%s", cmdline, pkg, out)
			}
		})
	}
	if err != nil && !t.Failed() {
		t.Fatalf("%s: %v\n%s", cmdline, err, out)
	}
}
