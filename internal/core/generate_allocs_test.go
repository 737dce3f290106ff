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
// markup, the LRU insert (and, the cache holding nothing, eviction) and
// the h2 exchange. 11 objects today. On the server: the request's
// Stream (1), the served entry, its slot table (hole fills and asset
// bytes), body, content-length and report items (5), the image's PNG
// (1) and the prose (1); the flight reuses the call no waiter joined,
// and the LRU the entry it evicted. On the client: its body buffer and
// the RawReply (2); the GET runs in the Stream the previous one's body
// retired. And the test's own request path (1). The handler runs on
// the goroutine the previous fetch's left parked on the connection; 12
// when the client made a Stream for each GET, 14 when each singleflight call and LRU
// entry was made anew, 15 when each fetch
// started a handler goroutine of its own, whose go statement made a
// closure, 17 when the image's Paletted header and index plane were
// made per generation and carried in its result; 25 when the stream's context was a
// context.WithCancel, the image and text results came back as pointers,
// the prompt embedding was a slice and the pass built an asset map and
// a report of its own; 39 when each generation built the
// <img> or <p> node the page then rendered, built its asset path and
// the page's asset list anew, and the flight's value, the release hook
// and the prose's word list took an object each, 50 when the page's
// placeholders ran on goroutines of their own inside the admitted
// generation and the synthesis kept its vectors on the heap, 52 when
// the LRU linked each entry through a list element of its own and
// collected evictions in a slice, 54 when image/png encoded the image
// and 177 when every fetch cloned the page, decoded its metadata and
// armed a queue-deadline timer to take a free worker; the page's parse
// and compilation are paid once, by the warm-up. One spare object
// covers a GC emptying the pools mid-run. (The race detector's
// instrumentation allocates; hence the build tag.)
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
	if allocs > 12 {
		t.Fatalf("one cold traditional fetch allocates %v objects, want at most 12", allocs)
	}
}
