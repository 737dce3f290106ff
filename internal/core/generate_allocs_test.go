//go:build !race

package core_test

import (
	"context"
	"net"
	"testing"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/overload"
	"sww/internal/workload"
)

// TestTraditionalGenerationAllocs pins what one cold traditional fetch
// of a workload.LoadPage costs both ends of a net.Pipe, the shape every
// cold_traditional fetch of the tier benchmark has: admission, one
// image and one text generation, the page written from its compiled
// holes, the LRU insert (and, the cache holding nothing, eviction) and
// the h2 exchange. 39 objects today, 50 when the page's placeholders
// ran on goroutines of their own inside the admitted generation and the
// synthesis kept its vectors on the heap, 52 when the LRU linked each
// entry through a list element of its own and collected evictions in a
// slice, 54 when image/png encoded the image and 177 when every fetch
// cloned the page, decoded its metadata and armed a queue-deadline
// timer to take a free worker; the page's parse and compilation are
// paid once, by the warm-up. Two spare objects cover a GC emptying the
// pools mid-run. (The race detector's instrumentation allocates; hence
// the build tag.)
func TestTraditionalGenerationAllocs(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetArtifactCacheBytes(0)
	srv.SetOverload(overload.Config{CacheBytes: 1}) // every generated page is evicted at once
	const pages = 2
	for i := 0; i < pages; i++ {
		srv.AddPage(workload.LoadPage(i))
	}
	cEnd, sEnd := net.Pipe()
	sc := srv.StartConn(sEnd)
	defer sc.Close()
	cl, err := core.NewClientWithAbility(cEnd, device.Laptop, nil, http2.GenNone)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	n := 0
	fetch := func() {
		raw, err := cl.FetchRaw(context.Background(), workload.LoadPagePath(n%pages))
		n++
		if err != nil || raw.Status != 200 || raw.Mode != core.ModeTraditional {
			t.Fatalf("fetch: %v %+v", err, raw)
		}
	}
	for i := 0; i < 20; i++ { // compile both pages, fill pools and tables
		fetch()
	}
	before := srv.OverloadStats().GenRuns
	allocs := testing.AllocsPerRun(200, fetch)
	if runs := srv.OverloadStats().GenRuns - before; runs != 201 {
		t.Fatalf("%d generations in 201 fetches: the cache served some", runs)
	}
	if allocs > 41 {
		t.Fatalf("one cold traditional fetch allocates %v objects, want at most 41", allocs)
	}
}
