package http2

import (
	"context"
	"errors"
	"maps"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sww/internal/hpack"
)

// TestSharedCancelHook: the streams a client connection opens under one
// context share one cancel hook (conn.hookContext). Ending the context
// cancels every stream still hooked on it and no other; a stream that
// joins a hook whose context has just ended is cancelled too; the
// table holds no hook no stream needs; and a closed connection leaves
// no hook on a context that outlives it. At the peer's stream limit,
// a cancelled stream's RST_STREAM goes out before any stream opened
// into its slot.
func TestSharedCancelHook(t *testing.T) {
	t.Run("cancel-all", testHookCancelsAll)
	t.Run("reset-before-reuse", testHookResetBeforeReuse)
	t.Run("join-ended", testHookJoinEnded)
	t.Run("table-bounded", testHookTableBounded)
	t.Run("closed-conn", testHookClosedConn)
}

// hooksOn returns the size of c's hook table and the live count of the
// hook on done, -1 when it has none.
func (c *conn) hooksOn(done <-chan struct{}) (n, live int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	live = -1
	if i := c.hookAt(done); i >= 0 {
		live = c.hooks[i].live
	}
	return len(c.hooks), live
}

// testHookCancelsAll: 8 GETs in flight under one context on one
// connection share its hook with a GET that finished earlier. Cancelling
// the context fails the 8 with errors that wrap context.Canceled, and
// the server sees exactly one RST_STREAM(CANCEL) on each of those 8
// streams and no other: DoContext closing a stream the hook already
// reset sends nothing more.
func testHookCancelsAll(t *testing.T) {
	cc, s := acceptRaw(t)
	s.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	got := make(chan fetched, 1)
	go func() {
		resp, err := cc.GetContext(ctx, "/done")
		if err != nil {
			got <- fetched{nil, err}
			return
		}
		body, err := ReadAllBodyContext(ctx, resp)
		got <- fetched{body, err}
	}()
	finished := s.awaitRequest()
	s.respond(finished, true)
	if f := <-got; f.err != nil {
		t.Fatalf("GET before the cancel: %v", f.err)
	}

	const parked = 8
	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func() {
			_, err := cc.GetContext(ctx, "/park")
			errs <- err
		}()
	}
	open := map[uint32]bool{}
	for len(open) < parked {
		open[s.awaitRequest()] = true
	}
	waitCond(t, "the parked GETs to join the hook", func() bool {
		n, live := cc.c.hooksOn(ctx.Done())
		return n == 1 && live == parked
	})

	cancel()
	for i := 0; i < parked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("parked GET: %v, want an error wrapping context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked GETs still waiting after the cancel", parked-i, parked)
		}
	}
	reset := map[uint32]bool{}
	for len(reset) < parked {
		fr, err := s.fr.ReadFrame()
		if err != nil {
			t.Fatalf("waiting for RST_STREAM: %v (have %d)", err, len(reset))
		}
		if fr.Type != FrameRSTStream {
			continue
		}
		if !open[fr.StreamID] || rstCode(fr) != ErrCodeCancel {
			t.Fatalf("RST_STREAM(%v) on stream %d; want CANCEL on a parked stream", rstCode(fr), fr.StreamID)
		}
		if reset[fr.StreamID] {
			t.Fatalf("second RST_STREAM on parked stream %d", fr.StreamID)
		}
		reset[fr.StreamID] = true
	}
	// A GET after the cancel: every parked GET has returned, so a
	// second reset of a parked stream would come before its HEADERS.
	go func() {
		resp, err := cc.Get("/after")
		if err == nil {
			_, err = ReadAllBody(resp)
		}
		got <- fetched{nil, err}
	}()
	for {
		fr, err := s.fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameRSTStream {
			t.Fatalf("RST_STREAM(%v) on stream %d after each parked stream's one reset (finished stream %d)", rstCode(fr), fr.StreamID, finished)
		}
		if fr.Type == FrameHeaders {
			s.respond(fr.StreamID, true)
			break
		}
	}
	if f := <-got; f.err != nil {
		t.Fatalf("GET after the cancel: %v", f.err)
	}
	if n, _ := cc.c.hooksOn(ctx.Done()); n != 0 {
		t.Errorf("%d hooks left after the context ended", n)
	}
}

// testHookResetBeforeReuse: against a server that allows 8 concurrent
// streams, 8 GETs parked under one context are cancelled while 8 more
// GETs under no context retry until a slot is free. The server never
// sees more than 8 streams open: each parked stream's RST_STREAM comes
// before the HEADERS of the GET that took its slot, so none would be
// refused: while the connection's writer is held, the callback frees
// no slot. Five rounds on one connection.
func testHookResetBeforeReuse(t *testing.T) {
	const limit = 8
	cc, s := acceptRaw(t, Setting{SettingMaxConcurrentStreams, limit})
	s.nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	waitCond(t, "the server's stream limit", func() bool {
		cc.c.mu.Lock()
		defer cc.c.mu.Unlock()
		return cc.c.peer.maxStreams == limit
	})
	open := map[uint32]bool{}
	// read takes the client's next frame, fails the test when a HEADERS
	// would open a stream past the limit, and returns it.
	read := func() Frame {
		t.Helper()
		fr, err := s.fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		switch fr.Type {
		case FrameHeaders:
			if len(open) == limit {
				t.Fatalf("HEADERS of stream %d with %d streams open, past the limit of %d", fr.StreamID, len(open), limit)
			}
			open[fr.StreamID] = true
		case FrameRSTStream:
			delete(open, fr.StreamID)
		}
		return fr
	}
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		parkedErrs := make(chan error, limit)
		for i := 0; i < limit; i++ {
			go func() {
				_, err := cc.GetContext(ctx, "/park")
				parkedErrs <- err
			}()
		}
		for len(open) < limit {
			read()
		}
		parked := maps.Clone(open)
		waitCond(t, "the parked GETs to join the hook", func() bool {
			_, live := cc.c.hooksOn(ctx.Done())
			return live == limit
		})
		var refused sync.WaitGroup // every late GET refused at least once
		refused.Add(limit)
		late := make(chan fetched, limit)
		for i := 0; i < limit; i++ {
			go func() {
				first := true
				for {
					resp, err := cc.Get("/late")
					if err != nil && strings.Contains(err.Error(), "too many concurrent streams") {
						if first {
							first = false
							refused.Done()
						}
						runtime.Gosched()
						continue
					}
					if err == nil {
						_, err = ReadAllBody(resp)
					}
					late <- fetched{nil, err}
					return
				}
			}()
		}
		refused.Wait()
		// With the writer held, the callback can drop the hook but
		// queue no RST_STREAM: every parked stream must still hold
		// its slot.
		cc.c.wmu.Lock()
		cancel()
		waitCond(t, "the hook's callback to drop it", func() bool {
			_, live := cc.c.hooksOn(ctx.Done())
			return live < 0
		})
		cc.c.mu.Lock()
		held := 0
		for id := range parked {
			if cc.c.streams[id] != nil {
				held++
			}
		}
		cc.c.mu.Unlock()
		cc.c.wmu.Unlock()
		if held != limit {
			t.Fatalf("round %d: %d of %d cancelled streams left their slots before their RST_STREAM was queued", round, limit-held, limit)
		}
		for answered := 0; answered < limit; {
			if fr := read(); fr.Type == FrameHeaders {
				if parked[fr.StreamID] {
					t.Fatalf("second HEADERS on parked stream %d", fr.StreamID)
				}
				s.respond(fr.StreamID, true)
				delete(open, fr.StreamID)
				answered++
			}
		}
		for i := 0; i < limit; i++ {
			if f := <-late; f.err != nil {
				t.Fatalf("round %d: GET after the cancel: %v", round, f.err)
			}
			if err := <-parkedErrs; !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: parked GET: %v, want an error wrapping context.Canceled", round, err)
			}
		}
		for len(open) > 0 {
			read()
		}
	}
}

// parkHandler answers /ok and holds every other request until the
// client resets it.
var parkHandler = HandlerFunc(func(w *ResponseWriter, r *Request) {
	if r.Path == "/ok" {
		w.Write([]byte("ok"))
		return
	}
	<-r.Stream().Context().Done()
})

// openParked opens a GET of /park on c as DoContext does, hooking it
// on nothing.
func openParked(t *testing.T, c *conn) *Stream {
	t.Helper()
	c.openMu.Lock()
	defer c.openMu.Unlock()
	st, err := c.openStream()
	if err != nil {
		t.Fatal(err)
	}
	fields := []hpack.HeaderField{
		{Name: ":method", Value: "GET"},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: "/park"},
	}
	if err := c.writeHeaderBlock(st.id, fields, true); err != nil {
		t.Fatal(err)
	}
	return st
}

// getOK GETs /ok under ctx and reads the body under it.
func getOK(t *testing.T, cc *ClientConn, ctx context.Context) {
	t.Helper()
	resp, err := cc.GetContext(ctx, "/ok")
	if err != nil {
		t.Fatal(err)
	}
	if body, err := ReadAllBodyContext(ctx, resp); err != nil || string(body) != "ok" {
		t.Fatalf("GET /ok = %q, %v", body, err)
	}
}

// testHookJoinEnded: a stream that joins the hook of a context that has
// just ended is cancelled, whether the hook's callback ran before the
// join (the join registers a hook that fires at once) or is still
// waiting for c.mu (the callback finds the stream).
func testHookJoinEnded(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, parkHandler)
	c := cc.c
	for _, callbackFirst := range []bool{true, false} {
		for i := 0; i < 50; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			// The second GET under ctx leaves a hook in the table that
			// stays with no stream on it.
			getOK(t, cc, ctx)
			getOK(t, cc, ctx)
			st := openParked(t, c)
			if callbackFirst {
				cancel()
				waitCond(t, "the hook's callback to drop it", func() bool {
					_, live := c.hooksOn(ctx.Done())
					return live < 0
				})
				c.hookContext(st, ctx)
			} else {
				c.mu.Lock() // the callback waits for this
				cancel()
				c.hookLocked(st, ctx)
				joined := len(c.hooks) == 1 && c.hooks[0].live == 1
				c.mu.Unlock()
				if !joined {
					t.Fatal("the stream did not join the ended context's hook")
				}
			}
			waitCond(t, "the joined stream to be cancelled", func() bool {
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.err != nil
			})
			if _, err := st.awaitHeaders(); !errors.Is(err, context.Canceled) {
				t.Fatalf("joined stream failed with %v, want an error wrapping context.Canceled", err)
			}
		}
	}
}

// testHookTableBounded: the table stays no larger than the
// connection's peak of concurrent streams (1) plus one. First, 1000
// sequential GETs, each under a context of its own that is not
// cancelled while the GETs run, each followed by a GET under one
// long-lived context: a context's first hook is stopped with its
// stream, so its end would run nothing, and the long-lived context's
// second stays, so it is registered twice in all. Then 1000 contexts of two GETs each: each
// keeps its second hook, which stops the one kept before it.
func testHookTableBounded(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, parkHandler)
	shared := newHookCounter()
	defer shared.cancel()
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	bounded := func(round int) {
		t.Helper()
		if n, _ := cc.c.hooksOn(nil); n > 2 {
			t.Fatalf("after %d rounds the table holds %d hooks, want at most 2", round, n)
		}
	}
	for i := 0; i < 1000; i++ {
		ctx := newHookCounter()
		cancels = append(cancels, func() { ctx.cancel() })
		getOK(t, cc, ctx)
		if n := ctx.registered(); n != 0 {
			t.Fatalf("round %d: a context's first hook outlived its stream (%d registered)", i+1, n)
		}
		getOK(t, cc, shared)
		bounded(i + 1)
	}
	if n, live := cc.c.hooksOn(shared.Done()); n != 1 || live != 0 {
		t.Errorf("the table holds %d hooks (%d streams on the long-lived context's), want only that one, idle", n, live)
	}
	if shared.made != 2 {
		t.Errorf("1000 GETs under one context registered %d hooks on it, want 2", shared.made)
	}
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		getOK(t, cc, ctx)
		getOK(t, cc, ctx)
		bounded(1000 + i + 1)
	}
	if shared.registered() != 0 {
		t.Error("the long-lived context's idle hook was not stopped by the ones kept after it")
	}
}

// hookCounter is a cancelable context that keeps the AfterFunc
// callbacks registered on it and not stopped, and runs them when it is
// cancelled.
type hookCounter struct {
	context.Context // the cancelable context behind it
	end             context.CancelFunc

	mu    sync.Mutex
	funcs map[*func()]bool
	made  int // callbacks registered in all
}

func newHookCounter() *hookCounter {
	ctx, end := context.WithCancel(context.Background())
	return &hookCounter{Context: ctx, end: end, funcs: map[*func()]bool{}}
}

// Value hides the context behind it, so that context.AfterFunc
// registers through hookCounter.AfterFunc.
func (*hookCounter) Value(any) any { return nil }

func (c *hookCounter) AfterFunc(f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	fp := &f
	c.funcs[fp] = true
	c.made++
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		registered := c.funcs[fp]
		delete(c.funcs, fp)
		return registered
	}
}

// registered is the number of callbacks registered and not stopped.
func (c *hookCounter) registered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.funcs)
}

// cancel ends the context, runs the callbacks still registered and
// returns how many it ran.
func (c *hookCounter) cancel() int {
	c.end()
	c.mu.Lock()
	funcs := c.funcs
	c.funcs = map[*func()]bool{}
	c.mu.Unlock()
	for f := range funcs {
		(*f)()
	}
	return len(funcs)
}

// testHookClosedConn: closing a connection stops its hooks, and a
// stream of a closed connection registers none. 1000
// connections dialled, used and closed under one long-lived context
// leave no callback registered on it, so cancelling it runs none, and
// grow the live heap by less than 1 MB: a hook left registered would
// pin its connection, buffers and all, to the context.
func testHookClosedConn(t *testing.T) {
	ctx := newHookCounter()
	defer ctx.cancel()
	dial := func() {
		cEnd, sEnd := net.Pipe()
		sc := (&Server{Handler: parkHandler}).StartConn(sEnd)
		cc, err := NewClientConn(cEnd, Config{})
		if err != nil {
			t.Fatal(err)
		}
		getOK(t, cc, ctx)
		getOK(t, cc, ctx) // its hook stays after the stream
		cc.Close()
		sc.Close()
	}
	// A stream whose connection closed between its HEADERS and its hook
	// registers none.
	cEnd, sEnd := net.Pipe()
	sc := (&Server{Handler: parkHandler}).StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := openParked(t, cc.c)
	cc.Close()
	sc.Close()
	cc.c.hookContext(st, ctx)
	if n := ctx.registered(); n != 0 {
		t.Fatalf("a stream of a closed connection registered %d callbacks", n)
	}
	for i := 0; i < 10; i++ {
		dial()
	}
	heap0 := liveHeap()
	for i := 0; i < 1000; i++ {
		dial()
	}
	heap1 := liveHeap()
	if grew := int64(heap1) - int64(heap0); grew > 1<<20 {
		t.Errorf("1000 closed connections under one context grew the live heap by %d bytes", grew)
	}
	if n := ctx.cancel(); n != 0 {
		t.Errorf("cancelling the context ran %d callbacks of closed connections", n)
	}
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
