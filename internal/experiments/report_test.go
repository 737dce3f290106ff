package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package if its tests leave goroutines behind: the
// reports boot h2 and h3 servers over pipes, and each must be gone
// once its fetch is done.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		// Connection teardown finishes a moment after Close returns.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%d goroutines after the tests, %d before\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

// unpinned names the experiments TestGoldenReports leaves out, each
// with why its report is not pinned byte for byte. Their bars still
// fail sww-bench wherever it runs them.
var unpinned = map[string]string{
	"chaos":     "repeats, but one scenario waits out an 8 s blackhole timeout",
	"overload":  "goodput and latency columns are wall-clock",
	"abuse":     "goodput with and without attack is wall-clock",
	"fastpath":  "cold and warm fetch times are wall-clock",
	"telemetry": "latency percentiles are wall-clock",
	"edgetier":  "goodput and reconcile times are wall-clock",
	"selfheal":  "push latency, reconcile time and goodput are wall-clock",
	"originha":  "failover time and retry counts are wall-clock",
	"capacity":  "realized rates, shed and latency are wall-clock",
}

// TestGoldenReports renders every other experiment exactly as
// `sww-bench -quick -only <key>` prints it and diffs the bytes against
// testdata/<key>.golden. After a change meant to move a report,
// regenerate its golden from the repository root with
//
//	go run ./cmd/sww-bench -quick -only <key> > internal/experiments/testdata/<key>.golden
func TestGoldenReports(t *testing.T) {
	pinned := 0
	for _, e := range Experiments {
		if _, ok := unpinned[e.Key]; ok {
			continue
		}
		pinned++
		t.Run(e.Key, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", e.Key+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if _, err := e.Run(&got, true); err != nil {
				t.Errorf("report failed: %v", err)
			}
			if d := lineDiff(string(want), got.String()); d != "" {
				t.Errorf("report differs from testdata/%s.golden (-want +got):\n%s", e.Key, d)
			}
		})
	}
	if pinned+len(unpinned) != len(Experiments) {
		t.Errorf("unpinned names a key that is not an experiment")
	}
	if goldens, _ := filepath.Glob("testdata/*.golden"); len(goldens) != pinned {
		t.Errorf("%d golden files for %d pinned experiments", len(goldens), pinned)
	}
}

// lineDiff lists, by line number, each line where got departs from
// want; "" when they are equal.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		if i < len(w) && i < len(g) && w[i] == g[i] {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n", i+1)
		if i < len(w) {
			fmt.Fprintf(&b, "-%s\n", w[i])
		}
		if i < len(g) {
			fmt.Fprintf(&b, "+%s\n", g[i])
		}
	}
	return b.String()
}
