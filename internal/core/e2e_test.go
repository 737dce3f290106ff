package core_test

// End-to-end tests: generative server and client talking real HTTP/2
// over net.Pipe, exercising the paper's §6.2 functionality scenarios
// on the real workloads.

import (
	"bytes"
	"maps"
	"net"
	"strings"
	"testing"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/http2"
	"sww/internal/workload"
)

// startSite builds a server with the full workload corpus and
// connects a client to it.
func startSite(t *testing.T, generativeClient bool) (*core.Client, *core.Server) {
	t.Helper()
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.WikimediaLandscape())
	srv.AddPage(workload.NewsArticle())
	srv.AddPage(workload.TravelBlog())

	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	var proc *core.PageProcessor
	if generativeClient {
		proc, err = core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
		if err != nil {
			t.Fatal(err)
		}
	}
	client, err := core.NewClient(cEnd, device.Laptop, proc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, srv
}

func TestGenerativeFetchWikimedia(t *testing.T) {
	client, _ := startSite(t, true)
	if !client.Negotiated().Supports(http2.GenBasic) {
		t.Fatal("negotiation failed")
	}
	res, err := client.Fetch(workload.WikimediaPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeGenerative {
		t.Fatalf("mode = %q", res.Mode)
	}
	if len(res.Report.Items) != workload.WikimediaImageCount {
		t.Fatalf("generated %d items, want %d", len(res.Report.Items), workload.WikimediaImageCount)
	}
	// All 49 images were generated locally, not fetched.
	generated := 0
	for path := range res.Assets {
		if strings.HasPrefix(path, "/generated/") {
			generated++
		}
	}
	if generated != workload.WikimediaImageCount {
		t.Errorf("%d generated assets", generated)
	}
	// The wire carried only the prompt page: far below the 1.4 MB
	// original (the HTML with JSON metadata is ≈15-25 kB).
	if res.WireBytes > 60_000 {
		t.Errorf("wire bytes = %d, expected well under the 1.4MB original", res.WireBytes)
	}
	// Generation dominates: §6.2 reports ≈310 s for this page on the
	// laptop.
	gen := res.Report.SimGenTime.Seconds()
	if gen < 250 || gen > 370 {
		t.Errorf("simulated laptop generation = %.0fs, want ≈310s", gen)
	}
	// The rendered page must not contain any leftover prompt divs.
	if strings.Contains(res.HTML, "generated-content") {
		t.Error("rendered page still contains prompt divs")
	}
}

func TestTraditionalFetchWikimedia(t *testing.T) {
	client, _ := startSite(t, false)
	if client.Negotiated() != http2.GenNone {
		t.Fatal("non-generative client negotiated ability")
	}
	res, err := client.Fetch(workload.WikimediaPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeTraditional {
		t.Fatalf("mode = %q", res.Mode)
	}
	if res.Report != nil {
		t.Error("traditional fetch should not have a generation report")
	}
	// The originals crossed the wire: ≈1.4 MB plus HTML.
	if res.WireBytes < workload.WikimediaTotalBytes {
		t.Errorf("wire bytes = %d, want ≥ %d", res.WireBytes, workload.WikimediaTotalBytes)
	}
	if len(res.Assets) != workload.WikimediaImageCount {
		t.Errorf("%d assets fetched, want %d", len(res.Assets), workload.WikimediaImageCount)
	}
}

// TestCompressionFactorEndToEnd measures the real wire-byte ratio
// between the two modes — the system-level version of Figure 2's
// media-only 157×.
func TestCompressionFactorEndToEnd(t *testing.T) {
	gen, _ := startSite(t, true)
	trad, _ := startSite(t, false)
	g, err := gen.Fetch(workload.WikimediaPath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trad.Fetch(workload.WikimediaPath)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(tr.WireBytes) / float64(g.WireBytes)
	// The page-level ratio includes HTML overhead on both sides, so
	// it sits below the media-only 157× but far above 10×.
	if ratio < 20 {
		t.Errorf("end-to-end compression = %.1fx, too low", ratio)
	}
	// Media-only accounting must reproduce the paper's number.
	mediaRatio := g.Report.MediaCompressionRatio()
	if mediaRatio < 100 || mediaRatio > 200 {
		t.Errorf("media compression = %.1fx, want ≈157x", mediaRatio)
	}
}

func TestServerPolicyTraditionalOverride(t *testing.T) {
	// §5.1: the server may serve traditional content even to capable
	// clients (e.g. renewable-energy availability).
	client, srv := startSite(t, true)
	srv.Policy = core.PolicyTraditional
	res, err := client.Fetch(workload.ArticlePath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeTraditional {
		t.Fatalf("mode = %q, want traditional despite capable client", res.Mode)
	}
	if !strings.Contains(res.HTML, "coastal protection") &&
		!strings.Contains(res.HTML, "Regional council") {
		t.Errorf("traditional article content missing")
	}
}

func TestNewsArticleGenerative(t *testing.T) {
	client, _ := startSite(t, true)
	res, err := client.Fetch(workload.ArticlePath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeGenerative {
		t.Fatalf("mode = %q", res.Mode)
	}
	if len(res.Report.Items) != 1 || res.Report.Items[0].Type != core.ContentText {
		t.Fatalf("items = %+v", res.Report.Items)
	}
	// §6.2: the laptop took 41.9 s for the text page. Our 390-word
	// expansion on DeepSeek R1 8B models that same path.
	gen := res.Report.SimGenTime.Seconds()
	if gen < 20 || gen > 60 {
		t.Errorf("simulated text generation = %.1fs, want tens of seconds", gen)
	}
	// The expansion landed in the page.
	if !strings.Contains(res.HTML, "sww-generated") {
		t.Error("expanded text not in page")
	}
}

func TestTravelBlogUniqueContent(t *testing.T) {
	client, _ := startSite(t, true)
	res, err := client.Fetch(workload.TravelBlogPath)
	if err != nil {
		t.Fatal(err)
	}
	// The unique hike photo must cross the wire unmodified (§2.1:
	// "Unique content files are fetched, same as today").
	photo, ok := res.Assets["/unique/hornspitze-summit.jpg"]
	if !ok {
		t.Fatal("unique asset not fetched")
	}
	if len(photo) != 48_000 {
		t.Errorf("unique asset = %d bytes, want 48000", len(photo))
	}
	// The unique route text survives verbatim.
	if !strings.Contains(res.HTML, "Bergstation car park") {
		t.Error("unique route text lost")
	}
	// Three stock images generated locally.
	gen := 0
	for path := range res.Assets {
		if strings.HasPrefix(path, "/generated/") {
			gen++
		}
	}
	if gen != 3 {
		t.Errorf("%d generated stock images, want 3", gen)
	}
}

// TestRepeatFetchReplaysFromCache is the generation fast path: a
// generative client fetches the travel blog three times over one
// connection. The repeats replay every item from the client's artifact
// cache, so they return the first fetch's assets byte for byte, and the
// modelled generation time and media compression do not move: the
// cache speeds up the reproduction, not the modelled device.
func TestRepeatFetchReplaysFromCache(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.TravelBlog())
	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClient(cEnd, device.Laptop, proc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var first *core.FetchResult
	for i := 1; i <= 3; i++ {
		res, err := client.Fetch(workload.TravelBlogPath)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if res.Mode != core.ModeGenerative {
			t.Fatalf("fetch %d: mode %q", i, res.Mode)
		}
		if first == nil {
			first = res
			continue
		}
		if !maps.EqualFunc(res.Assets, first.Assets, bytes.Equal) {
			t.Errorf("fetch %d: assets differ from fetch 1's", i)
		}
		if res.Report.SimGenTime != first.Report.SimGenTime {
			t.Errorf("fetch %d: SimGenTime %v, fetch 1 %v", i, res.Report.SimGenTime, first.Report.SimGenTime)
		}
		if got, want := res.Report.MediaCompressionRatio(), first.Report.MediaCompressionRatio(); got != want {
			t.Errorf("fetch %d: media compression %v, fetch 1 %v", i, got, want)
		}
	}
	// Fetch 1 misses on every generated item, and each repeat hits on
	// every one.
	items := uint64(len(first.Report.Items))
	if st := proc.Pipeline.Cache.Stats(); items == 0 || st.Misses != items || st.Hits != 2*items {
		t.Errorf("artifact cache %+v over %d items a fetch: want %d misses and %d hits", st, items, items, 2*items)
	}
}

// TestServerSideGeneration exercises §6.2's fallback: "When the
// client does not support generative content, the server uses the
// prompt to generate the content before sending it."
func TestServerSideGeneration(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	// A page with prompts only — no stored originals.
	page := workload.WikimediaLandscape()
	page.Originals = nil
	srv.AddPage(page)

	cEnd, sEnd := net.Pipe()
	srv.StartConn(sEnd)
	client, err := core.NewClient(cEnd, device.Laptop, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	res, err := client.Fetch(workload.WikimediaPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeTraditional {
		t.Fatalf("mode = %q", res.Mode)
	}
	if len(res.Assets) != workload.WikimediaImageCount {
		t.Fatalf("%d assets, want %d server-generated images", len(res.Assets), workload.WikimediaImageCount)
	}
	report := srv.ServerGenReport(workload.WikimediaPath)
	if report == nil {
		t.Fatal("no server-side generation report")
	}
	// Server generation runs on the workstation: §6.2 reports ≈49 s
	// (≈1 s/image).
	gen := report.SimGenTime.Seconds()
	if gen < 30 || gen > 70 {
		t.Errorf("server generation = %.0fs, want ≈49s", gen)
	}
}

// TestStorageSavings checks the §2.1 storage benefit: an SWW server
// stores prompts, not media.
func TestStorageSavings(t *testing.T) {
	srv, err := core.NewServer("", "")
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.WikimediaLandscape())
	sww, trad := srv.StorageBytes()
	if sww >= trad {
		t.Fatalf("sww storage %d >= traditional %d", sww, trad)
	}
	ratio := float64(trad) / float64(sww)
	if ratio < 30 {
		t.Errorf("storage ratio = %.1fx, want large", ratio)
	}
}

func TestNotFound(t *testing.T) {
	client, _ := startSite(t, true)
	if _, err := client.Fetch("/missing"); err == nil {
		t.Error("missing page should fail")
	}
}

// TestSWWOverHTTP3 runs the full SWW flow over the §3.1 HTTP/3
// mapping: negotiation on the QUIC control stream, prompt page
// delivery, client-side generation, asset fetches.
func TestSWWOverHTTP3(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.TravelBlog())
	srv.AddPage(workload.NewsArticle())

	cEnd, sEnd := net.Pipe()
	srv.StartConnH3(sEnd)
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	client, err := core.NewClientH3(cEnd, device.Laptop, proc)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if !client.Negotiated().Supports(http2.GenBasic) {
		t.Fatal("h3 negotiation failed")
	}
	res, err := client.Fetch(workload.TravelBlogPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeGenerative {
		t.Fatalf("mode = %q", res.Mode)
	}
	gen := 0
	for path := range res.Assets {
		if strings.HasPrefix(path, "/generated/") {
			gen++
		}
	}
	if gen != 3 {
		t.Errorf("%d generated assets over h3, want 3", gen)
	}
	if _, ok := res.Assets["/unique/hornspitze-summit.jpg"]; !ok {
		t.Error("unique asset not fetched over h3")
	}
	// A second page over the same session.
	res2, err := client.Fetch(workload.ArticlePath)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mode != core.ModeGenerative || len(res2.Report.Items) != 1 {
		t.Errorf("article over h3: mode=%q items=%d", res2.Mode, len(res2.Report.Items))
	}
}

// TestSWWOverHTTP3Traditional: a legacy client on the h3 transport
// falls back exactly like on h2.
func TestSWWOverHTTP3Traditional(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.NewsArticle())
	cEnd, sEnd := net.Pipe()
	srv.StartConnH3(sEnd)
	client, err := core.NewClientH3(cEnd, device.Laptop, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	res, err := client.Fetch(workload.ArticlePath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != core.ModeTraditional {
		t.Errorf("mode = %q", res.Mode)
	}
	if !strings.Contains(res.HTML, "Regional council") {
		t.Error("traditional article content missing over h3")
	}
}
