package core_test

// Interop with a stock peer: Go's net/http speaking unencrypted HTTP/2
// with prior knowledge, which knows nothing of SETTINGS_GEN_ABILITY
// (paper §3: such a peer ignores the unknown setting and gets the
// traditional page).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/tier"
	"sww/internal/workload"
)

// stockClient is net/http's client over h2c, dialling with dial.
func stockClient(dial func() (net.Conn, error)) (*http.Client, *http.Transport) {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	tr := &http.Transport{
		Protocols:   &p,
		DialContext: func(context.Context, string, string) (net.Conn, error) { return dial() },
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr
}

// stockGet fetches path and checks that it came back over HTTP/2 as a
// traditional page.
func stockGet(c *http.Client, path string) error {
	resp, err := c.Get("http://sww.test" + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return err
	case resp.StatusCode != 200 || resp.ProtoMajor != 2:
		return fmt.Errorf("%s: status %d over %s", path, resp.StatusCode, resp.Proto)
	case resp.Header.Get(core.ModeHeader) != core.ModeTraditional:
		return fmt.Errorf("%s: %s %q, want %q", path, core.ModeHeader, resp.Header.Get(core.ModeHeader), core.ModeTraditional)
	case !strings.Contains(string(body), "</html>"):
		return fmt.Errorf("%s: %d bytes, not a page", path, len(body))
	}
	return nil
}

// stockRounds fetches path once, then 100 times concurrently, with no
// error, and checks that the goroutines return to where they started
// once the client's connections close.
func stockRounds(t *testing.T, dial func() (net.Conn, error), path string) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	c, tr := stockClient(dial)
	if err := stockGet(c, path); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 100)
	var wg sync.WaitGroup
	for i := 0; i < cap(errs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := stockGet(c, path); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed++; failed == 1 {
			t.Error(err)
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d concurrent fetches failed", failed, cap(errs))
	}
	tr.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the client closed, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStockClientFetchesFromServer: a stock HTTP/2 client reads
// core.Server's SETTINGS, ignores what it does not know, and is served
// the traditional page.
func TestStockClientFetchesFromServer(t *testing.T) {
	srv, err := core.NewServer(imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPage(workload.LoadPage(0))
	stockRounds(t, func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	}, workload.LoadPagePath(0))
}

// TestStockClientFetchesThroughEdge: the same client is served by a
// cdn.Edge, which relays its (absent) ability to the origin. A first
// fetch opens the edge's upstream connection, which outlives the
// client's.
func TestStockClientFetchesThroughEdge(t *testing.T) {
	h, err := tier.New(tier.Options{Edges: []string{"edge1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	path := workload.CDNPagePath(0)
	if raw, err := h.Fetch(context.Background(), "edge1", path); err != nil || raw.Status != 200 {
		t.Fatalf("warming fetch: %v, %v", raw, err)
	}
	stockRounds(t, h.Dial("edge1"), path)
}

// TestClientFetchesFromStockServer: a capable and an incapable
// core.Client each read a stock HTTP/2 server's bodies intact, empty,
// around one 16 KiB frame and over many windows.
func TestClientFetchesFromStockServer(t *testing.T) {
	body := func(n int) []byte { return bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n] }
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	hs := &http.Server{Protocols: &p, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/bytes/"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Write(body(n))
	})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(l)
	defer hs.Close()

	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		proc *core.PageProcessor
	}{{"capable", proc}, {"incapable", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.NewClient(nc, device.Laptop, tc.proc)
			if err != nil {
				nc.Close()
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for _, n := range []int{0, 16<<10 - 1, 16 << 10, 16<<10 + 1, 1 << 20} {
				raw, err := c.FetchRaw(ctx, fmt.Sprintf("/bytes/%d", n))
				if err != nil {
					t.Fatalf("%d B: %v", n, err)
				}
				if raw.Status != 200 || !bytes.Equal(raw.Body, body(n)) {
					t.Fatalf("%d B: status %d, %d bytes back, intact %v", n, raw.Status, len(raw.Body), bytes.Equal(raw.Body, body(n)))
				}
			}
		})
	}
}
