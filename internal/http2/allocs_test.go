//go:build !race

package http2

import (
	"net"
	"testing"

	"sww/internal/hpack"
)

// getAllocBudget is what one GET may allocate across both endpoints of
// a net.Pipe pair: the client's Stream, the body ReadAllBody returns
// and the stream's receive buffer behind it; the server's Stream and
// the handler goroutine's closure. Everything else a request used to
// allocate — send window, condition variables, header channel, header
// lists, Request, ResponseWriter, Response, body adapter, the client's
// stream context — lives inside the two Streams.
const getAllocBudget = 5

// TestGetAllocBudget pins the request lifecycle at one Stream per
// side. (The race detector's instrumentation allocates; hence the
// build tag.)
func TestGetAllocBudget(t *testing.T) {
	body := []byte("<html><body>prompt page</body></html>")
	h := HandlerFunc(func(w *ResponseWriter, r *Request) {
		fl := hpack.AcquireFieldList()
		fl.Add("content-type", "text/html; charset=utf-8")
		fl.Add("content-length", "37")
		fl.Add("x-sww-mode", "generative")
		w.WriteHeaders(200, fl.Fields...)
		hpack.ReleaseFieldList(fl)
		w.WriteRetained(body)
	})
	cEnd, sEnd := net.Pipe()
	sc := (&Server{Handler: h}).StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	defer cc.Close()

	get := func() {
		resp, err := cc.Get("/page")
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAllBody(resp)
		if err != nil || len(got) != len(body) || resp.HeaderValue("x-sww-mode") != "generative" {
			t.Fatalf("GET = %q, %v, headers %v", got, err, resp.Header)
		}
	}
	for i := 0; i < 100; i++ { // fill the dynamic tables and the pools
		get()
	}
	if allocs := testing.AllocsPerRun(200, get); allocs > getAllocBudget {
		t.Fatalf("one GET allocates %v objects, budget %d (one Stream per side)", allocs, getAllocBudget)
	}
}
