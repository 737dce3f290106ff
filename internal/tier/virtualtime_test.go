//go:build !goexperiment.synctest

package tier

import (
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
// child `go test` under GOEXPERIMENT=synctest, which Go 1.24 needs to
// build them, so that a plain `go test ./...` runs them too; a race
// build passes -race on to the child. The child is built with the
// experiment on, so this file is not in it and cannot recurse.
func TestVirtualTime(t *testing.T) {
	args := []string{"test", "-count=1", "-run", "Bubble"}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	args = append(args, ".")
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOEXPERIMENT=synctest go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}
