//go:build !race

package http2

import (
	"net"
	"testing"

	"sww/internal/hpack"
)

// getAllocBudget is what one GET may allocate across both endpoints of
// a net.Pipe pair when the handler answers on the read loop: the
// client's Stream and its receive buffer, which is the body ReadAllBody
// returns. Everything else a request used to allocate — send window,
// condition variables, header channel, header lists, Request,
// ResponseWriter, Response, body adapter, the client's stream context —
// lives inside the client's Stream, and the server answers in the
// Stream its previous inline reply left spare.
// A handler that is served from a goroutine pays two objects more: a
// Stream of its own on the server and the closure of its go statement.
const (
	getAllocBudget          = 2
	getAllocBudgetGoroutine = getAllocBudget + 2
)

// TestGetAllocBudget pins the request lifecycle at the client's Stream
// and body, plus the server's Stream for a plain Handler. (The race
// detector's instrumentation allocates; hence the build tag.)
func TestGetAllocBudget(t *testing.T) {
	body := []byte("<html><body>prompt page</body></html>")
	respond := func(w *ResponseWriter, try bool) bool {
		fields := [...]hpack.HeaderField{
			{Name: "content-type", Value: "text/html; charset=utf-8"},
			{Name: "content-length", Value: "37"},
			{Name: "x-sww-mode", Value: "generative"},
		}
		if try {
			return w.TryRespond(200, body, fields[:]...)
		}
		return w.Respond(200, body, fields[:]...) == nil
	}
	plain := HandlerFunc(func(w *ResponseWriter, r *Request) { respond(w, false) })
	inline := inlineFuncs{
		try:   func(w *ResponseWriter, r *Request) bool { return respond(w, true) },
		serve: plain,
	}
	for _, tc := range []struct {
		name   string
		h      Handler
		budget float64
	}{
		{"goroutine", plain, getAllocBudgetGoroutine},
		{"inline", inline, getAllocBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cEnd, sEnd := net.Pipe()
			sc := (&Server{Handler: tc.h}).StartConn(sEnd)
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
			for i := 0; i < 100; i++ { // fill the dynamic tables and the writer's buffers
				get()
			}
			if allocs := testing.AllocsPerRun(200, get); allocs > tc.budget {
				t.Fatalf("one GET allocates %v objects, budget %v", allocs, tc.budget)
			}
		})
	}
}
