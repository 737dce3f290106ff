//go:build !race

package http2

import (
	"context"
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
// A handler that is served from a goroutine pays one object more, a
// Stream of its own on the server. It runs on the handler goroutine
// the previous such request left parked, so no go statement allocates
// a closure for it.
// A request under a cancelable context pays nothing more once the
// connection keeps a cancel hook for that context, from the context's
// second stream on (conn.hookContext). A request under a context of
// its own pays for that context and its hook, which is stopped with
// the stream: the context's cancelCtx, CancelFunc and Done channel;
// context.AfterFunc's context and stop function, and the map and map
// group that register them as the context's child; and the closure
// that cancels the connection's streams.
const (
	getAllocBudget           = 2
	getAllocBudgetGoroutine  = getAllocBudget + 1
	getAllocBudgetPerRequest = getAllocBudget + 8
)

// TestGetAllocBudget pins the request lifecycle at the client's Stream
// and body, plus the server's Stream for a plain Handler, and a context
// and its hook when the request brings a context of its own.
// BenchmarkRespondBody's GETs over loopback TCP are goroutine-served
// and pay what a goroutine-served GET on a net.Pipe does, whatever the
// body's size. (The race detector's instrumentation allocates; hence
// the build tag.)
func TestGetAllocBudget(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inline, plain := allocsHandlers()
	type pin struct {
		name   string
		get    func(t *testing.T) func()
		budget float64
	}
	pins := []pin{
		{"goroutine", func(t *testing.T) func() { return allocsClient(t, plain, context.Background()) }, getAllocBudgetGoroutine},
		{"inline", func(t *testing.T) func() { return allocsClient(t, inline, context.Background()) }, getAllocBudget},
		{"inline-cancelable", func(t *testing.T) func() { return allocsClient(t, inline, ctx) }, getAllocBudget},
		{"per-request-cancelable", func(t *testing.T) func() {
			get := allocsGet(t, inline)
			return func() {
				ctx, cancel := context.WithCancel(context.Background())
				get(ctx)
				cancel()
			}
		}, getAllocBudgetPerRequest},
	}
	for _, size := range respondBodySizes {
		pins = append(pins, pin{"RespondBody/" + size.name, func(t *testing.T) func() { return respondBodyGet(t, size.n) }, getAllocBudgetGoroutine})
	}
	for _, tc := range pins {
		t.Run(tc.name, func(t *testing.T) {
			get := tc.get(t)
			for i := 0; i < 100; i++ { // fill the dynamic tables and the writer's buffers
				get()
			}
			if allocs := testing.AllocsPerRun(200, get); allocs > tc.budget {
				t.Fatalf("one GET allocates %v objects, budget %v", allocs, tc.budget)
			}
		})
	}
}

// TestFramerAllocs: BenchmarkFramerWrite's frames are built in the
// writer's buffer and BenchmarkFrameReadData's frame is read into the
// framer's, so neither allocates once the buffers have grown.
func TestFramerAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(testing.TB) func()
	}{{"FramerWrite", framerWrite}, {"FrameReadData", frameReadData}} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.op(t)
			for i := 0; i < 100; i++ {
				op()
			}
			if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
				t.Fatalf("%s: %v allocs an op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestCancelHookReleased: the cancel hook an exchange registers on its
// context is gone once the body is read, so 10k sequential exchanges
// under one long-lived cancelable context leave nothing on it — the
// count per exchange stays flat and the live heap does not grow with
// the exchanges.
func TestCancelHookReleased(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inline, _ := allocsHandlers()
	get := allocsClient(t, inline, ctx)
	for i := 0; i < 100; i++ {
		get()
	}
	before := testing.AllocsPerRun(200, get)
	heap0 := liveHeap()
	for i := 0; i < 10000; i++ {
		get()
	}
	heap1 := liveHeap()
	if after := testing.AllocsPerRun(200, get); after != before {
		t.Errorf("a GET allocates %v objects after 10k exchanges, %v before", after, before)
	}
	// A hook left registered keeps its closure and Stream alive: about
	// a kilobyte an exchange, 10 MB for 10k.
	if grew := int64(heap1) - int64(heap0); grew > 1<<20 {
		t.Errorf("10k exchanges under one context grew the live heap by %d bytes", grew)
	}
}

// allocsHandlers returns one handler answering a 37-byte page on the
// read loop and one answering it from a handler goroutine.
func allocsHandlers() (inline, plain Handler) {
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
	p := HandlerFunc(func(w *ResponseWriter, r *Request) { respond(w, false) })
	return inlineFuncs{
		try:   func(w *ResponseWriter, r *Request) bool { return respond(w, true) },
		serve: p,
	}, p
}

// allocsClient serves h on one end of a net.Pipe and returns a GET of
// its page under ctx from a client on the other; the test's cleanup
// closes both.
func allocsClient(t *testing.T, h Handler, ctx context.Context) func() {
	get := allocsGet(t, h)
	return func() { get(ctx) }
}

// allocsGet is allocsClient with the context given to each GET.
func allocsGet(t *testing.T, h Handler) func(ctx context.Context) {
	cEnd, sEnd := net.Pipe()
	sc := (&Server{Handler: h}).StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cc.Close()
		sc.Close()
	})
	return func(ctx context.Context) {
		resp, err := cc.GetContext(ctx, "/page")
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAllBodyContext(ctx, resp)
		if err != nil || len(got) != 37 || resp.HeaderValue("x-sww-mode") != "generative" {
			t.Fatalf("GET = %q, %v, headers %v", got, err, resp.Header)
		}
	}
}
