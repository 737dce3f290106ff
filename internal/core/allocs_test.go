//go:build !race

package core

import (
	"context"
	"net"
	"testing"

	"sww/internal/http2"
)

// TestBeginRequestTelemetryOffAllocs: with no telemetry attached every
// trace call is a nil no-op, and opening a request must not build the
// strings those calls would have recorded. (The race detector's
// instrumentation allocates; hence the build tag.)
func TestBeginRequestTelemetryOffAllocs(t *testing.T) {
	srv, err := NewServer("", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		rctx, tr, _ := srv.beginRequest(ctx, "h2", "/page", http2.GenFull|http2.GenUpscaleOnly, false)
		if tr != nil || rctx != ctx {
			t.Fatal("telemetry is off, yet beginRequest opened a trace")
		}
	})
	if allocs != 0 {
		t.Fatalf("beginRequest with telemetry off: %v allocs, want 0", allocs)
	}
}

// TestInlinePromptServeAllocs: a warm prompt page fetched over h2 is
// answered on the connection's read loop, and one such GET costs the
// two endpoints what http2 alone accounts for (its getAllocBudget): the
// client's Stream and its receive buffer, which is the body it returns.
// The server answers in the stream its last inline reply left spare,
// and there is no room for a stream context (two objects), a handler
// goroutine's closure or an escaping payload — one inline prompt serve
// allocates nothing.
func TestInlinePromptServeAllocs(t *testing.T) {
	srv, err := NewServer("", "")
	if err != nil {
		t.Fatal(err)
	}
	page := overloadGenPage(0)
	srv.AddPage(page)
	cEnd, sEnd := net.Pipe()
	sc := srv.StartConn(sEnd)
	cc, err := http2.NewClientConn(cEnd, http2.Config{GenAbility: http2.GenFull})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	defer cc.Close()

	get := func() {
		resp, err := cc.Get(page.Path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := http2.ReadAllBody(resp)
		if err != nil || len(body) != len(page.PromptBytes()) || resp.HeaderValue(ModeHeader) != ModeGenerative {
			t.Fatalf("GET = %d bytes, %v, headers %v", len(body), err, resp.Header)
		}
	}
	for i := 0; i < 100; i++ { // fill the dynamic tables and the writer's buffers
		get()
	}
	if allocs := testing.AllocsPerRun(200, get); allocs > 2 {
		t.Fatalf("one warm prompt GET allocates %v objects, want at most 2", allocs)
	}
}
