package core_test

import (
	"bytes"
	"net"
	"testing"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/workload"
)

// TestModesAgree: §6.2's two modes give one page. A server with the
// same models as the client and no stored originals serves each named
// fixture page to a capable client, which renders the prompt page and
// generates its assets locally, and to an incapable one, which gets the
// server's rendering and then GETs every asset it references. The two
// agree on the HTML byte for byte and on every asset's bytes by path.
// The two fetches run at once: the gallery's upscaling is most of the
// test's time.
// Each client runs on one connection, so each asset GET after the first
// runs in the stream the previous one retired: a reused stream that
// carried one path's body to another would show here too.
func TestModesAgree(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	pages := map[string]*core.Page{}
	for _, page := range []*core.Page{workload.WikimediaLandscape(), workload.NewsArticle(), workload.TravelBlog(), workload.PhotoGallery()} {
		page.Originals = nil
		srv.AddPage(page)
		pages[page.Path] = page
	}
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	dial := func(proc *core.PageProcessor) *core.Client {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		cl, err := core.NewClient(cEnd, device.Laptop, proc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	capable, incapable := dial(proc), dial(nil)
	for path := range pages {
		t.Run(path, func(t *testing.T) {
			var trad *core.FetchResult
			tradErr := make(chan error, 1)
			go func() {
				var err error
				trad, err = incapable.Fetch(path)
				tradErr <- err
			}()
			gen, err := capable.Fetch(path)
			if err != nil {
				t.Fatalf("capable fetch: %v", err)
			}
			if err := <-tradErr; err != nil {
				t.Fatalf("incapable fetch: %v", err)
			}
			if gen.Mode != core.ModeGenerative || trad.Mode != core.ModeTraditional {
				t.Fatalf("modes %q and %q, want %q and %q", gen.Mode, trad.Mode, core.ModeGenerative, core.ModeTraditional)
			}
			if gen.HTML != trad.HTML {
				i := 0
				for i < min(len(gen.HTML), len(trad.HTML)) && gen.HTML[i] == trad.HTML[i] {
					i++
				}
				from := max(i-40, 0)
				t.Errorf("the HTML differs from byte %d:\n generative  %.120q\n traditional %.120q", i, gen.HTML[from:], trad.HTML[from:])
			}
			if len(gen.Assets) != len(trad.Assets) {
				t.Errorf("%d assets generated, %d fetched", len(gen.Assets), len(trad.Assets))
			}
			for p, data := range gen.Assets {
				if got, ok := trad.Assets[p]; !ok {
					t.Errorf("%s: generated, not fetched", p)
				} else if !bytes.Equal(got, data) {
					t.Errorf("%s: %d bytes generated, %d different bytes fetched", p, len(data), len(got))
				}
			}
		})
	}
}
