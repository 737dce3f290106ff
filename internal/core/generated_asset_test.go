package core

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"

	"sww/internal/device"
	"sww/internal/html"
	"sww/internal/http2"
	"sww/internal/overload"
)

// picPage is a page at path whose one image, named "pic" like every
// other picPage's, is generated from a prompt that names the path.
func picPage(t *testing.T, path string) *Page {
	t.Helper()
	gc := GeneratedContent{Type: ContentImage, Meta: Metadata{
		Prompt: "a lighthouse on " + path + ", flat colors",
		Name:   "pic", Width: 32, Height: 32,
	}}
	div, err := gc.Div()
	if err != nil {
		t.Fatal(err)
	}
	doc := html.Parse(`<html><body></body></html>`)
	doc.ByTag("body")[0].AppendChild(div)
	return &Page{Path: path, Doc: doc}
}

// entryBytes is what page's generated form charges the LRU.
func entryBytes(t *testing.T, srv *Server, page *Page) int64 {
	t.Helper()
	st, err := srv.serverProc.processTraditional(context.Background(), page)
	if err != nil {
		t.Fatal(err)
	}
	return st.bytes
}

// pipeClient connects a client of ability gen to srv over HTTP/2.
func pipeClient(t *testing.T, srv *Server, gen http2.GenAbility) *Client {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	sc := srv.StartConn(sEnd)
	t.Cleanup(func() { sc.Close() })
	cl, err := NewClientWithAbility(cEnd, device.Laptop, nil, gen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestGeneratedAssetPerPage: two pages whose images have one name each
// serve their own image, fetched traditionally, and each keeps serving
// it until its own page's generated form leaves the server, whether
// RemovePage takes it or the LRU evicts it.
func TestGeneratedAssetPerPage(t *testing.T) {
	for _, evict := range []bool{false, true} {
		name := map[bool]string{false: "RemovePage", true: "LRU"}[evict]
		t.Run(name, func(t *testing.T) {
			a, b := picPage(t, "/a"), picPage(t, "/b")
			srv := newOverloadServer(t, overload.Config{})
			if evict { // room for one page's entry, not two
				srv.SetOverload(overload.Config{CacheBytes: entryBytes(t, srv, a) * 3 / 2})
			}
			var mu sync.Mutex
			var unpublished []string
			srv.SetOnUnpublish(func(paths []string) {
				mu.Lock()
				unpublished = append(unpublished, paths...)
				mu.Unlock()
			})
			srv.AddPage(a)
			srv.AddPage(b)
			cl := pipeClient(t, srv, http2.GenNone)

			img := map[*Page]string{}
			data := map[*Page][]byte{}
			for _, p := range []*Page{a, b} {
				res, err := cl.Fetch(p.Path)
				if err != nil {
					t.Fatalf("fetching %s: %v", p.Path, err)
				}
				srcs := AssetPaths(html.Parse(res.HTML))
				if len(srcs) != 1 || len(res.Assets[srcs[0]]) == 0 {
					t.Fatalf("%s: images %q, assets %d", p.Path, srcs, len(res.Assets))
				}
				img[p], data[p] = srcs[0], res.Assets[srcs[0]]
			}
			if img[a] == img[b] || bytes.Equal(data[a], data[b]) {
				t.Fatalf("pages /a and /b share their image: %q and %q", img[a], img[b])
			}
			fetch := func(p *Page) *RawReply {
				t.Helper()
				raw, err := cl.FetchRaw(context.Background(), img[p])
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}

			kept, gone := b, a // the LRU evicted /a to store /b
			if !evict {
				if raw := fetch(a); raw.Status != 200 || !bytes.Equal(raw.Body, data[a]) {
					t.Fatalf("/a's image after /b's generation: status %d, its own bytes %v", raw.Status, bytes.Equal(raw.Body, data[a]))
				}
				kept, gone = a, b
				srv.RemovePage(b.Path)
			}
			if raw := fetch(kept); raw.Status != 200 || !bytes.Equal(raw.Body, data[kept]) {
				t.Errorf("%s's image after %s left: status %d, its own bytes %v", kept.Path, gone.Path, raw.Status, bytes.Equal(raw.Body, data[kept]))
			}
			if raw := fetch(gone); raw.Status != 404 {
				t.Errorf("%s's image after its page left: status %d, want 404", gone.Path, raw.Status)
			}
			want := []string{gone.Path, img[gone]}
			mu.Lock()
			defer mu.Unlock()
			if fmt.Sprint(unpublished) != fmt.Sprint(want) {
				t.Errorf("unpublished %q, want %q", unpublished, want)
			}
		})
	}
}

// TestGeneratedAssetRacesEviction: while other pages, all with an image
// of the same name, are generated into an LRU with room for one page
// and so evict page A over and over, and A is generated again, fetches
// of A's image, inline on the read loop and on goroutines of their own,
// answer A's bytes or 404 and nothing else (run under -race).
func TestGeneratedAssetRacesEviction(t *testing.T) {
	pages := []*Page{picPage(t, "/a"), picPage(t, "/b"), picPage(t, "/c"), picPage(t, "/d")}
	a := pages[0]
	srv := newOverloadServer(t, overload.Config{})
	srv.SetOverload(overload.Config{CacheBytes: entryBytes(t, srv, a) * 3 / 2})
	for _, p := range pages {
		srv.AddPage(p)
	}
	ctx := context.Background()
	pl, _ := srv.resolve(ctx, "GET", a.Path, http2.GenNone, false)
	srcs := AssetPaths(html.Parse(string(pl.body)))
	if pl.status != 200 || len(srcs) != 1 {
		t.Fatalf("generating /a: status %d, images %q", pl.status, srcs)
	}
	img := srcs[0]
	want, _ := srv.resolve(ctx, "GET", img, http2.GenNone, false)
	if want.status != 200 || len(want.body) == 0 {
		t.Fatalf("/a's image: status %d, %d bytes", want.status, len(want.body))
	}
	inlineCl := pipeClient(t, srv, http2.GenNone)

	check := func(how string, status int, body []byte) {
		if status != 404 && (status != 200 || !bytes.Equal(body, want.body)) {
			t.Errorf("%s fetch of /a's image: status %d, /a's bytes %v", how, status, bytes.Equal(body, want.body))
		}
	}
	done := make(chan struct{})
	var fetchers, generators sync.WaitGroup
	for g := 0; g < 2; g++ {
		generators.Add(1)
		go func(g int) {
			defer generators.Done()
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				p := pages[i%len(pages)]
				if pl, _ := srv.resolve(ctx, "GET", p.Path, http2.GenNone, false); pl.status != 200 {
					t.Errorf("generating %s: status %d", p.Path, pl.status)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		fetchers.Add(2)
		go func() { // a whole GET: offered inline first
			defer fetchers.Done()
			for i := 0; i < 100; i++ {
				raw, err := inlineCl.FetchRaw(ctx, img)
				if err != nil {
					t.Error(err)
					return
				}
				check("inline", raw.Status, raw.Body)
			}
		}()
		go func() { // the handler goroutine's resolve
			defer fetchers.Done()
			for i := 0; i < 1000; i++ {
				pl, _ := srv.resolve(ctx, "GET", img, http2.GenNone, false)
				check("handler", pl.status, pl.body)
			}
		}()
	}
	fetchers.Wait()
	close(done)
	generators.Wait()
	if ev := srv.OverloadStats().CacheEvictions; ev == 0 {
		t.Error("no page was evicted")
	}
}

// TestSetAbilityKeepsModelIDs: a server whose advertised ability is
// replaced still advertises its §7 models, over HTTP/2 and HTTP/3.
func TestSetAbilityKeepsModelIDs(t *testing.T) {
	srv := newOverloadServer(t, overload.Config{})
	srv.SetAbility(http2.GenFull)
	proc := newParallelProc(t, 1)

	cEnd, sEnd := net.Pipe()
	sc := srv.StartConn(sEnd)
	defer sc.Close()
	h2, err := NewClient(cEnd, device.Laptop, proc)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()

	cEnd3, sEnd3 := net.Pipe()
	sc3 := srv.StartConnH3(sEnd3)
	defer sc3.Close()
	h3, err := NewClientH3(cEnd3, device.Laptop, proc)
	if err != nil {
		t.Fatal(err)
	}
	defer h3.Close()

	for name, cl := range map[string]*Client{"h2": h2, "h3": h3} {
		if got := cl.Negotiated(); got != http2.GenFull {
			t.Errorf("%s: negotiated %v, want %v", name, got, http2.GenFull)
		}
		if img, txt := cl.conn.ServerModelIDs(); img == 0 || txt == 0 {
			t.Errorf("%s: server advertised model ids %d, %d", name, img, txt)
		}
	}
}
