package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sww/internal/leakcheck"
)

// TestMain fails the package if its tests leave goroutines behind: the
// reports boot h2 and h3 servers over pipes, and each must be gone
// once its fetch is done.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// unpinned names the experiments TestGoldenReports leaves out, each
// with why its report is not pinned byte for byte. Their bars still
// fail sww-bench wherever it runs them.
var unpinned = map[string]string{
	"telemetry": "latency percentiles are wall-clock",
	"capacity":  "realized rates, shed and latency are wall-clock",
}

// TestGoldenReports renders every other experiment exactly as
// `sww-bench -quick -only <key>` prints it and diffs the bytes against
// testdata/<key>.golden. After a change meant to move a report,
// regenerate its golden from the repository root with
//
//	go run ./cmd/sww-bench -quick -only <key> > internal/experiments/testdata/<key>.golden
//
// Two kinds of change move rows here by design; any other moved row is
// a finding, not a golden to regenerate.
//   - The served serialization (the rendered prompt page, the h2 frames
//     of a reply) moves fig2's "wire bytes generative" with the
//     page-level factor and transmit energy beside it, storage's "SWW
//     storage" and "ratio", and upscale's "wire, upscale" and savings.
//   - The generator's PNG bytes (a stand-in model's, not the paper's)
//     move upscale's "wire, upscale" and savings, its low-res sources
//     being generated PNGs. They also move the tier benchmark's traced
//     core.compression_ratio.
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
			if err := e.Run(&got, true); err != nil {
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
