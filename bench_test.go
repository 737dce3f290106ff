package sww

// Benchmarks of this implementation's own cost: the Figure 1 div
// transformation, the serve path end to end and on the wire, and the
// placeholder worker pool. The paper's tables and figures (E2–E17)
// are experiments, not benchmarks: `sww-bench` prints them and
// internal/experiments' tests assert them.
//
// Simulated device seconds (the paper's laptop/workstation timings)
// are reported as custom metrics; wall-clock ns/op is real cost.

import (
	"fmt"
	"net"
	"testing"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/html"
	"sww/internal/http2"
	"sww/internal/workload"
)

// BenchmarkFig1DivProcessing is E1: the Figure 1 transformation of a
// single generated-content div into an image reference.
func BenchmarkFig1DivProcessing(b *testing.B) {
	gc := core.GeneratedContent{
		Type: core.ContentImage,
		Meta: core.Metadata{
			Prompt: "a cartoon goldfish with large friendly eyes swimming in a round glass bowl",
			Name:   "goldfish", Width: 256, Height: 256,
		},
	}
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var simSeconds float64
	for i := 0; i < b.N; i++ {
		div, err := gc.Div()
		if err != nil {
			b.Fatal(err)
		}
		doc := html.Parse("<html><body></body></html>")
		doc.ByTag("body")[0].AppendChild(div)
		_, rep, err := proc.Process(doc)
		if err != nil {
			b.Fatal(err)
		}
		simSeconds = rep.SimGenTime.Seconds()
	}
	b.ReportMetric(simSeconds, "sim-laptop-s")
}

// BenchmarkServeTravelBlog measures this implementation's real
// serving throughput on the §2.1 page (wall clock, not simulated).
func BenchmarkServeTravelBlog(b *testing.B) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		b.Fatal(err)
	}
	srv.AddPage(workload.TravelBlog())
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		b.Fatal(err)
	}
	client, err := core.NewClient(cEnd, device.Laptop, proc)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Fetch(workload.TravelBlogPath); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmServeWire isolates the wire path: a raw h2 client
// fetches the §2.1 prompt page from a warm server (no client-side
// generation, no server-side synthesis — the page resolves from the
// registry every time). allocs/op here is the end-to-end per-request
// wire cost: request encode, header decode, response field assembly,
// HPACK block, frame emission, and body delivery.
func BenchmarkWarmServeWire(b *testing.B) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		b.Fatal(err)
	}
	srv.AddPage(workload.TravelBlog())
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	cc, err := http2.NewClientConn(cEnd, http2.Config{GenAbility: http2.GenFull})
	if err != nil {
		b.Fatal(err)
	}
	defer cc.Close()
	warm, err := cc.Get(workload.TravelBlogPath)
	if err != nil {
		b.Fatal(err)
	}
	body, err := http2.ReadAllBody(warm)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cc.Get(workload.TravelBlogPath)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := http2.ReadAllBody(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcessParallel measures the placeholder worker pool's
// wall-clock scaling on a multi-image page. The artifact cache is
// disabled so every iteration pays real synthesis — this isolates the
// parallel engine from the cache fast path.
func BenchmarkProcessParallel(b *testing.B) {
	page := workload.TravelBlog().HTML()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
			if err != nil {
				b.Fatal(err)
			}
			proc.Pipeline.Cache = nil
			proc.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				doc := html.Parse(page)
				if _, _, err := proc.Process(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
