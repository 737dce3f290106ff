//go:build !goexperiment.synctest

package tier

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// TestVirtualTime runs this package's bubbles (bubble_test.go) in a
// child `go test -json` under GOEXPERIMENT=synctest, which Go 1.24 needs
// to build them, so that a plain `go test ./...` runs them too; a race
// build passes -race on to the child. Each bubble the child ran is
// reported as a subtest of the same name, failing with its own output.
// The child is built with the experiment on, so this file is not in it
// and cannot recurse.
func TestVirtualTime(t *testing.T) {
	args := []string{"test", "-json", "-count=1", "-run", "Bubble"}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	args = append(args, ".")
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	out, err := cmd.CombinedOutput()

	// The child's events, one JSON object a line; a line that is not one
	// (a build error) stays only in out.
	var order []string
	outputs, failed := map[string]*strings.Builder{}, map[string]bool{}
	for line := range bytes.Lines(out) {
		var ev struct{ Action, Test, Output string }
		if json.Unmarshal(line, &ev) != nil || ev.Test == "" || strings.Contains(ev.Test, "/") {
			continue
		}
		if outputs[ev.Test] == nil {
			order = append(order, ev.Test)
			outputs[ev.Test] = &strings.Builder{}
		}
		outputs[ev.Test].WriteString(ev.Output)
		failed[ev.Test] = failed[ev.Test] || ev.Action == "fail"
	}
	for _, name := range order {
		t.Run(name, func(t *testing.T) {
			if failed[name] {
				t.Errorf("GOEXPERIMENT=synctest go %s:\n%s", strings.Join(args, " "), outputs[name])
			}
		})
	}
	if len(order) == 0 || (err != nil && !t.Failed()) {
		t.Fatalf("GOEXPERIMENT=synctest go %s: %v, %d bubbles ran\n%s", strings.Join(args, " "), err, len(order), out)
	}
}
