package http2

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/hpack"
)

// TestClientSettingsPrecedeSettingsAck: a server whose SETTINGS are
// already in the client's socket when the client starts must still see
// the client's own SETTINGS first, not the ACK of its own — a server
// refuses a connection whose first frame is anything else (§3.4).
// Loopback TCP, not net.Pipe: the race needs a transport that buffers.
func TestClientSettingsPrecedeSettingsAck(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 200; i++ {
		first := make(chan Frame, 1)
		fail := make(chan error, 1)
		go func() {
			nc, err := l.Accept()
			if err != nil {
				fail <- err
				return
			}
			defer nc.Close()
			fr := NewFramer(nc, nc)
			// SETTINGS before reading a byte, so they win the race
			// whenever the client lets them.
			if err := fr.WriteSettings(); err != nil {
				fail <- err
				return
			}
			if _, err := io.ReadFull(nc, make([]byte, len(ClientPreface))); err != nil {
				fail <- err
				return
			}
			f, err := fr.ReadFrame()
			if err != nil {
				fail <- err
				return
			}
			f.Payload = nil // the framer's buffer; only the header is judged
			first <- f
			fr.WriteSettingsAck()
			for err == nil { // until the client closes
				_, err = fr.ReadFrame()
			}
		}()
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cc, err := NewClientConn(nc, Config{})
		if err != nil {
			t.Fatalf("handshake %d: %v", i, err)
		}
		select {
		case f := <-first:
			if f.Type != FrameSettings || f.Has(FlagAck) {
				t.Fatalf("handshake %d: client's first frame is %v, want SETTINGS without ACK", i, f.FrameHeader)
			}
		case err := <-fail:
			t.Fatalf("handshake %d: raw server: %v", i, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("handshake %d: no frame from the client", i)
		}
		cc.Close()
	}
}

// TestCloseRacingPeerClose: ClientConn.Close and the read loop's own
// teardown (the server's socket closing under it) may run at once;
// exactly one of them closes the done channel.
func TestCloseRacingPeerClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		cEnd, sEnd := net.Pipe()
		srv := &Server{Handler: HandlerFunc(okHandler)}
		sc := srv.StartConn(sEnd)
		cc, err := NewClientConn(cEnd, Config{DrainTimeout: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cc.Close() }()
		go func() { defer wg.Done(); sEnd.Close() }()
		wg.Wait()
		select {
		case <-cc.c.doneCh:
		case <-time.After(5 * time.Second):
			t.Fatal("client connection never finished tearing down")
		}
		sc.Close()
	}
}

// newTestStream returns a client-role stream on a connection whose
// peer discards everything, for driving the read loop's callbacks by
// hand.
func newTestStream(t *testing.T) *Stream {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go io.Copy(io.Discard, sEnd)
	c := newConn(cEnd, Config{}, false)
	t.Cleanup(func() {
		c.aw.close()
		cEnd.Close()
		sEnd.Close()
	})
	st, err := c.openStream()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var okResponse = []hpack.HeaderField{{Name: ":status", Value: "200"}, {Name: "x-sww-mode", Value: "generative"}}

// TestHeadersThenReset: the first header block wins over a later
// error — the waiter gets the response, and the reset surfaces on the
// body.
func TestHeadersThenReset(t *testing.T) {
	st := newTestStream(t)
	reset := StreamError{StreamID: st.id, Code: ErrCodeCancel, Reason: "reset by peer"}
	scratch := append([]hpack.HeaderField(nil), okResponse...)
	st.onHeaders(scratch, false)
	scratch[1].Value = "overwritten by the next block" // the read loop reuses its list
	st.closeWithError(reset)

	hdrs, err := st.awaitHeaders()
	if err != nil {
		t.Fatalf("awaitHeaders after headers-then-reset: %v, want the headers", err)
	}
	if len(hdrs) != 2 || hdrs[1] != okResponse[1] {
		t.Fatalf("headers = %v, want a stream-owned copy of %v", hdrs, okResponse)
	}
	if _, err := st.Read(make([]byte, 1)); !errors.Is(err, reset) {
		t.Fatalf("Read after reset: %v, want %v", err, reset)
	}
}

// TestResetThenHeaders: a stream that died first stays dead — a header
// block arriving afterwards does not resurrect the response.
func TestResetThenHeaders(t *testing.T) {
	st := newTestStream(t)
	reset := StreamError{StreamID: st.id, Code: ErrCodeRefusedStream, Reason: "reset by peer"}
	st.closeWithError(reset)
	st.onHeaders(okResponse, true)
	if hdrs, err := st.awaitHeaders(); !errors.Is(err, reset) {
		t.Fatalf("awaitHeaders after reset-then-headers = %v, %v; want %v", hdrs, err, reset)
	}
}

// TestResetWakesHeaderWait: closeWithError wakes a caller already
// blocked waiting for headers.
func TestResetWakesHeaderWait(t *testing.T) {
	st := newTestStream(t)
	done := make(chan error, 1)
	go func() {
		_, err := st.awaitHeaders()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it block; either order must pass
	st.closeWithError(ErrPeerClosed)
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("awaitHeaders = %v, want %v", err, ErrPeerClosed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("closeWithError did not wake the header wait")
	}
}

// TestContextAfterStreamDeath: a context first asked for after the
// stream died is born canceled; one handed out earlier is canceled by
// the death; and Context returns the same context every time.
func TestContextAfterStreamDeath(t *testing.T) {
	st := newTestStream(t)
	st.closeWithError(ErrPeerClosed)
	select {
	case <-st.Context().Done():
	default:
		t.Fatal("Context() of a dead stream is not canceled")
	}
	if err := st.Context().Err(); err != context.Canceled {
		t.Fatalf("Context().Err() of a dead stream = %v, want %v", err, context.Canceled)
	}

	st = newTestStream(t)
	ctx := st.Context()
	if ctx.Err() != nil {
		t.Fatal("live stream's context already canceled")
	}
	st.Close()
	if ctx.Err() == nil {
		t.Fatal("Close did not cancel the context handed out before it")
	}
	if st.Context() != ctx {
		t.Fatal("Context() is not stable across calls")
	}
}

// inlineFuncs is a test InlineHandler: try runs on the read loop,
// serve on a goroutine of the request's own.
type inlineFuncs struct {
	try   func(w *ResponseWriter, r *Request) bool
	serve func(w *ResponseWriter, r *Request)
}

func (h inlineFuncs) ServeSWW(w *ResponseWriter, r *Request)         { h.serve(w, r) }
func (h inlineFuncs) TryServeSWW(w *ResponseWriter, r *Request) bool { return h.try(w, r) }

// pathLog records which paths reached one side of an inlineFuncs.
type pathLog struct {
	mu    sync.Mutex
	paths []string
}

func (l *pathLog) add(p string) {
	l.mu.Lock()
	l.paths = append(l.paths, p)
	l.mu.Unlock()
}

func (l *pathLog) get() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.paths...)
}

// echoInline answers every request with its own path: as the body, and
// as a header value no two requests share, so every response's header
// block inserts into the HPACK dynamic table. Paths under /g/ are
// declined inline and answered from the goroutine.
func echoInline(tried, served *pathLog) inlineFuncs {
	respond := func(w *ResponseWriter, r *Request, try bool) bool {
		echo := hpack.HeaderField{Name: "x-echo", Value: r.Path}
		if try {
			return w.TryRespond(200, []byte(r.Path), echo)
		}
		w.Respond(200, []byte(r.Path), echo)
		return true
	}
	return inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			tried.add(r.Path)
			return !strings.HasPrefix(r.Path, "/g/") && respond(w, r, true)
		},
		serve: func(w *ResponseWriter, r *Request) {
			io.Copy(io.Discard, r.Body)
			served.add(r.Path)
			respond(w, r, false)
		},
	}
}

// dialRawConn is dialRawCfg that also hands back the served connection
// and lets the raw peer choose its SETTINGS.
func dialRawConn(t *testing.T, cfg Config, h Handler, settings ...Setting) (*rawPeer, *conn) {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	sc := (&Server{Handler: h, Config: cfg}).StartConn(sEnd)
	if _, err := io.WriteString(cEnd, ClientPreface); err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{t: t, nc: cEnd, fr: NewFramer(cEnd, cEnd), henc: hpack.NewEncoder()}
	if err := p.fr.WriteSettings(settings...); err != nil {
		t.Fatal(err)
	}
	if fr := p.read(); fr.Type != FrameSettings {
		t.Fatalf("first server frame %v", fr.Type)
	}
	if err := p.fr.WriteSettingsAck(); err != nil {
		t.Fatal(err)
	}
	if err := sc.WaitClientSettings(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Clearing the deadline stops its timer, whose callback would
		// otherwise run on a goroutine of its own in some later test
		// (TestInlineSpawnsNoGoroutine counts them).
		cEnd.SetDeadline(time.Time{})
		cEnd.Close()
	})
	return p, sc.c
}

// waitCond polls cond until it holds; the events these tests wait for
// are a frame's effect on the read loop's state, which nothing signals.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// liveStreams returns the number of streams in the map and the
// peer-initiated stream count that the concurrency limit runs on.
func (c *conn) liveStreams() (int, uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.streams), c.peerStreams
}

// TestInlineRequestWithBodyNotOffered: only a request whose HEADERS
// carried END_STREAM is complete when the read loop sees it; one with a
// body to come goes straight to its goroutine.
func TestInlineRequestWithBodyNotOffered(t *testing.T) {
	var tried, served pathLog
	cc, sc := startPair(t, Config{}, Config{}, echoInline(&tried, &served))
	resp, err := cc.Do(&Request{Method: "POST", Path: "/upload", Body: strings.NewReader("payload")})
	if err != nil {
		t.Fatal(err)
	}
	if body, err := ReadAllBody(resp); err != nil || string(body) != "/upload" {
		t.Fatalf("POST reply = %q, %v", body, err)
	}
	// The client has the whole reply while the /upload goroutine may
	// still hold the write lock behind its last frame; an inline attempt
	// that meets it there rightly declines.
	waitCond(t, "the /upload handler to return", func() bool {
		n, _ := sc.c.liveStreams()
		return n == 0
	})
	resp, err = cc.Get("/page")
	if err != nil {
		t.Fatal(err)
	}
	if body, err := ReadAllBody(resp); err != nil || string(body) != "/page" {
		t.Fatalf("GET reply = %q, %v", body, err)
	}
	if got := tried.get(); len(got) != 1 || got[0] != "/page" {
		t.Fatalf("offered inline: %v, want only /page", got)
	}
	if got := served.get(); len(got) != 1 || got[0] != "/upload" {
		t.Fatalf("served from a goroutine: %v, want only /upload", got)
	}
}

// TestInlineDeclinesOnShortWindow: a stream window that cannot cover
// the whole body declines the inline attempt. The request is then
// served from its goroutine, which waits for WINDOW_UPDATE — and while
// it waits, a later stream on the same connection is answered in full.
func TestInlineDeclinesOnShortWindow(t *testing.T) {
	for _, window := range []uint32{0, 4} {
		var tried, served pathLog
		const slow = "/slow-body" // 10 bytes of body against a window of 0 or 4
		body := func(r *Request) []byte {
			if r.Path == slow {
				return []byte(slow)
			}
			return nil
		}
		h := inlineFuncs{
			try: func(w *ResponseWriter, r *Request) bool {
				tried.add(r.Path)
				return w.TryRespond(200, body(r))
			},
			serve: func(w *ResponseWriter, r *Request) {
				served.add(r.Path)
				w.Respond(200, body(r))
			},
		}
		p, c := dialRawConn(t, Config{}, h, Setting{SettingInitialWindowSize, window})

		p.request(1, slow)
		p.request(3, "/empty")
		got := map[uint32][]byte{}
		ended := map[uint32]bool{}
		readTo := func(id uint32) {
			for !ended[id] {
				fr := p.readUntil(FrameHeaders, FrameData)
				if fr.Type == FrameData {
					got[fr.StreamID] = append(got[fr.StreamID], fr.Payload...)
				}
				ended[fr.StreamID] = ended[fr.StreamID] || fr.Has(FlagEndStream)
			}
		}
		readTo(3)
		if ended[1] {
			t.Fatalf("window %d: stream 1 finished without window for its body", window)
		}
		if len(got[1]) > int(window) {
			t.Fatalf("window %d: %d body bytes sent", window, len(got[1]))
		}
		if err := p.fr.WriteWindowUpdate(1, 100); err != nil {
			t.Fatal(err)
		}
		readTo(1)
		if string(got[1]) != slow || len(got[3]) != 0 {
			t.Fatalf("window %d: bodies %q / %q", window, got[1], got[3])
		}
		// Stream 3 needs no window and is normally answered inline; it
		// too goes to a goroutine if its attempt meets stream 1's
		// goroutine holding the write lock for its HEADERS.
		if tr, sv := tried.get(), served.get(); len(tr) != 2 || len(sv) == 0 || sv[0] != slow {
			t.Fatalf("window %d: offered inline %v, served from a goroutine %v", window, tr, sv)
		}
		waitCond(t, "both streams to leave the map", func() bool {
			n, peers := c.liveStreams()
			return n == 0 && peers == 0
		})
	}
}

// queued returns the bytes waiting in the connection's writer: appended
// and not yet taken, or taken and not yet written.
func (c *conn) queued() int {
	c.aw.mu.Lock()
	defer c.aw.mu.Unlock()
	return len(c.aw.buf) + c.aw.writing
}

// TestInlineDeclinesOnSaturatedWriter: against a peer that has stopped
// reading, with maxQueuedData waiting in the writer, an inline attempt
// is declined — it does not sleep in the queue. The read loop goes on
// to apply the peer's WINDOW_UPDATE and RST_STREAM, and answers its PING
// once the peer reads again.
func TestInlineDeclinesOnSaturatedWriter(t *testing.T) {
	declined := make(chan bool, 1)
	chunk := make([]byte, 64<<10)
	h := inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			if r.Path == "/flood" {
				return false
			}
			ok := w.TryRespond(200, []byte("hi"))
			declined <- !ok
			return ok
		},
		serve: func(w *ResponseWriter, r *Request) {
			if r.Path != "/flood" {
				w.Respond(200, []byte("hi"))
				return
			}
			w.WriteHeaders(200)
			for i := 0; i < 2*maxQueuedData/len(chunk); i++ {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		},
	}
	const window = 1 << 30
	p, c := dialRawConn(t, Config{}, h, Setting{SettingInitialWindowSize, window})
	if err := p.fr.WriteWindowUpdate(0, window); err != nil {
		t.Fatal(err)
	}
	p.request(1, "/flood")
	waitCond(t, "the writer queue to saturate", func() bool { return c.queued() >= maxQueuedData })
	flood := c.lookupStream(1)

	p.request(3, "/small")
	select {
	case d := <-declined:
		if !d {
			t.Fatal("TryRespond queued a reply past maxQueuedData")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the inline attempt is stuck behind the saturated writer")
	}
	// A declined stream enters the map after the attempt, on its way to
	// its goroutine.
	waitCond(t, "stream 3 to be handed to its goroutine", func() bool { return c.lookupStream(3) != nil })
	small := c.lookupStream(3)
	// Both handlers now wait for room with window claimed, /small from
	// its goroutine. Whatever they hold of it, what the connection window
	// has left plus what its streams took is what the peer has granted.
	granted := func() int64 {
		return c.connSend.available() + 2*window - flood.send.available() - small.send.available()
	}
	if err := p.fr.WriteWindowUpdate(0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := p.fr.WriteRSTStream(1, ErrCodeCancel); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "WINDOW_UPDATE and RST_STREAM to be applied", func() bool {
		return granted() == defaultWindowSize+window+1000 && c.lookupStream(1) == nil
	})

	// The peer reads again; the PING is written from a goroutine because
	// net.Pipe is synchronous and this one must keep draining.
	ping := [8]byte{'i', 'n', 'l', 'i', 'n', 'e'}
	go p.fr.WritePing(false, ping)
	for {
		fr := p.read()
		if fr.Type == FramePing && fr.Has(FlagAck) && string(fr.Payload) == string(ping[:]) {
			break
		}
	}
}

// TestInlineReplyThenReset: the peer resets each stream right behind
// its HEADERS. The reply went out whole while the HEADERS were being
// handled, so the reset finds the stream gone: it is no rapid reset,
// and every stream ends exactly once.
func TestInlineReplyThenReset(t *testing.T) {
	rec := &abuseRecorder{}
	var tried, served pathLog
	p, c := dialRawConn(t, Config{AbusePolicy: &AbusePolicy{RapidResetBudget: 5}, OnAbuse: rec.hook},
		echoInline(&tried, &served))
	const n = 50
	go p.resetStorm(n, "/i", nil)
	for ends := 0; ends < n; {
		fr := p.readUntil(FrameData, FrameRSTStream, FrameGoAway)
		if fr.Type != FrameData {
			t.Fatalf("%v in answer to a reset behind a complete reply", fr.FrameHeader)
		}
		if fr.Has(FlagEndStream) {
			ends++
		}
	}
	waitCond(t, "every stream to leave the map", func() bool {
		live, peers := c.liveStreams()
		return live == 0 && peers == 0
	})
	if len(rec.events) != 0 || len(served.get()) != 0 {
		t.Fatalf("abuse events %v, goroutine serves %v; want none of either", rec.events, served.get())
	}
}

// TestInlineRespondRacingReset: the other order. The handler answers
// from its goroutine with Respond — the same emitter — while the peer's
// RST_STREAM for the stream is on its way. Whichever lands first, the
// stream leaves the map once and the concurrency count returns to zero.
func TestInlineRespondRacingReset(t *testing.T) {
	var tried, served pathLog
	p, c := dialRawConn(t, Config{AbusePolicy: &AbusePolicy{Disabled: true}}, echoInline(&tried, &served))
	const n = 50
	go func() {
		for {
			if _, err := p.fr.ReadFrame(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		id := uint32(1 + 2*i)
		p.request(id, "/g/raced")
		if err := p.fr.WriteRSTStream(id, ErrCodeCancel); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "every handler to return and every stream to leave the map", func() bool {
		live, peers := c.liveStreams()
		return len(served.get()) == n && live == 0 && peers == 0
	})
	p.request(2*n+1, "/i/after")
	waitCond(t, "the connection to serve one more request", func() bool { return len(tried.get()) == n+1 })
}

// TestInlinePanicResetsStream: a panic on the read loop is answered
// like one on a handler goroutine — 500 or RST_STREAM(INTERNAL_ERROR) —
// and the read loop lives to serve the next request.
func TestInlinePanicResetsStream(t *testing.T) {
	h := inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			if r.Path == "/boom" {
				panic("kaboom")
			}
			return w.TryRespond(200, []byte("fine"))
		},
		serve: func(w *ResponseWriter, r *Request) { t.Errorf("%s reached a goroutine", r.Path) },
	}
	cc, _ := startPair(t, Config{}, Config{}, h)
	if resp, err := cc.Get("/boom"); err == nil {
		if resp.Status != 500 {
			t.Errorf("panic answered with status %d", resp.Status)
		}
		_, err := ReadAllBody(resp)
		var se StreamError
		if !errors.As(err, &se) || se.Code != ErrCodeInternal {
			t.Errorf("panic body ended with %v, want RST_STREAM(INTERNAL_ERROR)", err)
		}
	}
	resp, err := cc.Get("/ok")
	if err != nil {
		t.Fatalf("connection unusable after an inline panic: %v", err)
	}
	if body, _ := ReadAllBody(resp); string(body) != "fine" {
		t.Errorf("body = %q", body)
	}
}

// TestInlineMixedWritersStress: eight requesters on one connection,
// half their requests answered on the read loop and half from handler
// goroutines, every response inserting into the HPACK dynamic table.
// The client decodes every block, so one header block emitted out of
// encoding order would fail the connection or garble a value.
func TestInlineMixedWritersStress(t *testing.T) {
	const writers, rounds = 8, 150
	var tried, served pathLog
	cc, _ := startPair(t, Config{}, Config{}, echoInline(&tried, &served))
	var wg sync.WaitGroup
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for seq := 0; seq < rounds; seq++ {
				path := fmt.Sprintf("/%c/%d/%d", "ig"[seq%2], id, seq)
				resp, err := cc.Get(path)
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				body, err := ReadAllBody(resp)
				if err != nil || string(body) != path || resp.HeaderValue("x-echo") != path {
					t.Errorf("%s: body %q, x-echo %q, %v", path, body, resp.HeaderValue("x-echo"), err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	// An inline attempt that finds the write lock taken declines, so a
	// few of the inline half may have gone to goroutines as well.
	if got, all := len(served.get()), writers*rounds; got < all/2 || got == all {
		t.Errorf("%d of %d requests served from goroutines, want half and a few", got, all)
	}
}

// TestInlineSpawnsNoGoroutine: warm GETs answered on the read loop
// leave the goroutine count where it was, and none reaches ServeSWW.
func TestInlineSpawnsNoGoroutine(t *testing.T) {
	var tried, served pathLog
	cc, _ := startPair(t, Config{}, Config{}, echoInline(&tried, &served))
	get := func() {
		resp, err := cc.Get("/i/warm")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadAllBody(resp); err != nil {
			t.Fatal(err)
		}
	}
	get()
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		get()
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("GET %d: %d goroutines, %d before", i, n, before)
		}
	}
	if got := served.get(); len(got) != 0 {
		t.Fatalf("%d requests reached ServeSWW", len(got))
	}
}

// countingConn counts the Read and Write calls made on a connection.
// Like any wrapper it hides the TCP connection's writev from the layer
// above.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneReadPerGet: over a transport that buffers, a request leaves
// the client in one Write and reaches the server in one Read, and the
// whole reply — HEADERS, DATA and END_STREAM, built as one unit — leaves
// the server in one Write, whatever the size of its body, and reaches
// the client in one Read.
func TestOneReadPerGet(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	bodies := map[string][]byte{
		"/page":  []byte(strings.Repeat("a prompt page ", 30)),
		"/frame": patterned(minMaxFrameSize),
	}
	srv := &Server{Handler: inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			body := bodies[r.Path]
			return w.TryRespond(200, body, hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(len(body))})
		},
		serve: func(w *ResponseWriter, r *Request) { w.Respond(200, bodies[r.Path]) },
	}}
	accepted := make(chan *countingConn, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			t.Error(err)
			close(accepted)
			return
		}
		accepted <- &countingConn{Conn: nc}
	}()
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	clientEnd := &countingConn{Conn: nc}
	serverEnd := <-accepted
	if serverEnd == nil {
		t.FailNow()
	}
	sc := srv.StartConn(serverEnd)
	cc, err := NewClientConn(clientEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	defer cc.Close()

	get := func(path string) {
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ReadAllBody(resp); err != nil || !bytes.Equal(got, bodies[path]) {
			t.Fatalf("GET %s = %d bytes, %v", path, len(got), err)
		}
	}
	for i := 0; i < 20; i++ { // past the handshake's frames
		get("/page")
	}
	const gets = 500
	counters := map[string]*atomic.Int64{
		"client Reads": &clientEnd.reads, "client Writes": &clientEnd.writes,
		"server Reads": &serverEnd.reads, "server Writes": &serverEnd.writes,
	}
	before := map[string]int64{}
	for name, c := range counters {
		before[name] = c.Load()
	}
	for i := 0; i < gets; i++ {
		get("/page")
	}
	// A client also writes a WINDOW_UPDATE for every half connection
	// window of bodies, by itself or with its next request.
	for name, c := range counters {
		n := c.Load() - before[name]
		t.Logf("%s: %d for %d GETs", name, n, gets)
		if per := float64(n) / gets; per > 1.1 {
			t.Errorf("%s: %.2f per GET, want at most 1.1", name, per)
		}
	}

	// A body of one full frame is still one Write: nothing about the
	// reply depends on the transport gathering several buffers.
	const frames = 20
	writes := serverEnd.writes.Load()
	for i := 0; i < frames; i++ {
		get("/frame")
	}
	if n := serverEnd.writes.Load() - writes; n != frames {
		t.Errorf("server: %d Writes for %d replies of %d bytes, want one each", n, frames, minMaxFrameSize)
	}
}

// TestRespondBodyMayBeReused: Respond has copied the body when it
// returns, on its long form (this body is two frames) as on its short
// one, so a handler may write over its buffer at once.
func TestRespondBodyMayBeReused(t *testing.T) {
	want := patterned(32 << 10)
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		buf := append([]byte(nil), want...)
		if r.Path == "/short" {
			buf = buf[:1<<10]
		}
		w.Respond(200, buf)
		clear(buf)
	}))
	for i := 0; i < 200; i++ {
		path, n := "/long", len(want)
		if i%2 == 1 {
			path, n = "/short", 1<<10
		}
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := readAllWithin(t, resp); err != nil || !bytes.Equal(got, want[:n]) {
			t.Fatalf("GET %d %s: %d bytes (the handler's are %d), %v", i, path, len(got), n, err)
		}
	}
}

// TestSlowReaderHoldsBoundedQueue: a peer that grants a window of a
// gigabyte and then reads slowly is sent DATA at the pace it reads. The
// writer never holds more than maxQueuedData and the frame that crossed
// it; the handler waits for room outside the write lock (the PING is
// answered) and, reset while it waits, gives back the connection window
// it had claimed; and the writer's two buffers end no larger than the
// bound allows.
func TestSlowReaderHoldsBoundedQueue(t *testing.T) {
	const window = 1 << 30
	returned := make(chan struct{})
	chunk := make([]byte, 64<<10)
	p, c := dialRawConn(t, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		defer close(returned)
		w.WriteHeaders(200)
		for i := 0; i < window/len(chunk); i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}), Setting{SettingInitialWindowSize, window})
	if err := p.fr.WriteWindowUpdate(0, window); err != nil {
		t.Fatal(err)
	}
	p.request(1, "/bulk")

	received := 0 // DATA bytes, all of which the server charged to both windows
	readOne := func() Frame {
		fr := p.read()
		if fr.Type == FrameData {
			received += len(fr.Payload)
		}
		if q, limit := c.queued(), maxQueuedData+frameHeaderLen+minMaxFrameSize; q >= limit {
			t.Fatalf("%d bytes queued after %d were read, want fewer than %d", q, received, limit)
		}
		return fr
	}
	for received < 8<<20 {
		readOne()
	}
	waitCond(t, "the writer to fill up again", func() bool { return c.queued() >= maxQueuedData })
	if err := p.fr.WriteRSTStream(1, ErrCodeCancel); err != nil {
		t.Fatal(err)
	}
	// Nothing more is sent on the dead stream, so the peer reads only up
	// to frames that are sure to come: a PING's ACK. The first drains what
	// was queued before the reset, and the parked handler gets room, sees
	// the reset and returns; the second reads the DATA frame it may have
	// been writing at that instant, and nothing is queued behind it.
	pingAck := func(data [8]byte) {
		go p.fr.WritePing(false, data) // net.Pipe: the server's writer may be waiting for this reader
		for {
			if fr := readOne(); fr.Type == FramePing && fr.Has(FlagAck) && string(fr.Payload) == string(data[:]) {
				return
			}
		}
	}
	pingAck([8]byte{'r', 'e', 's', 'e', 't'})
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler waiting for room did not return after the reset")
	}
	pingAck([8]byte{'s', 'l', 'o', 'w'})
	if got, want := c.connSend.available(), int64(defaultWindowSize+window-received); got != want {
		t.Errorf("connection send window %d after %d bytes of DATA, want %d: %d claimed and neither sent nor returned",
			got, received, want, want-got)
	}
	c.aw.mu.Lock()
	defer c.aw.mu.Unlock()
	if a, b := cap(c.aw.buf), cap(c.aw.spare); a > 2*maxQueuedData || b > 2*maxQueuedData {
		t.Errorf("writer buffers of %d and %d bytes kept, want at most %d", a, b, 2*maxQueuedData)
	}
}

// recvBalanced reports whether every DATA byte the connection has
// received has gone back to its receive window: what the peer may still
// send plus what is consumed but not yet announced is the whole window.
func (c *conn) recvBalanced() bool {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	return c.connRecv.granted+c.connRecv.unacked == c.connRecv.target
}

func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

// readAllWithin is ReadAllBody that fails the test instead of hanging.
func readAllWithin(t *testing.T, resp *Response) ([]byte, error) {
	t.Helper()
	done := make(chan fetched, 1)
	go func() {
		body, err := ReadAllBody(resp)
		done <- fetched{body, err}
	}()
	select {
	case r := <-done:
		return r.body, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("ReadAllBody is stuck")
		return nil, nil
	}
}

// TestLentBodyLargerThanWindow: a lent body is credited as it arrives,
// so 1 MiB flows through the default 64 KiB windows with nobody calling
// Read — announced (one presized buffer) or not (a grown one).
func TestLentBodyLargerThanWindow(t *testing.T) {
	big := patterned(1 << 20)
	for _, announced := range []bool{true, false} {
		h := HandlerFunc(func(w *ResponseWriter, r *Request) {
			var fields []hpack.HeaderField
			if announced {
				fields = append(fields, hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(len(big))})
			}
			w.WriteHeaders(200, fields...)
			w.Write(big)
		})
		cc, _ := startPair(t, Config{}, Config{}, h)
		resp, err := cc.Get("/big")
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAllWithin(t, resp)
		if err != nil || !bytes.Equal(got, big) {
			t.Fatalf("announced=%v: %d bytes, %v", announced, len(got), err)
		}
		if announced && cap(got) != len(big) {
			t.Errorf("announced body sits in a buffer of %d bytes, want exactly %d", cap(got), len(big))
		}
		if !cc.c.recvBalanced() {
			t.Errorf("announced=%v: connection window not whole after the body: %+v", announced, cc.c.connRecv)
		}
	}
}

// TestLentBodyAfterPartialRead: ReadAllBody returns what Read left.
func TestLentBodyAfterPartialRead(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.Respond(200, []byte("0123456789"))
	}))
	resp, err := cc.Get("/digits")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4)
	if _, err := io.ReadFull(resp.Body, head); err != nil || string(head) != "0123" {
		t.Fatalf("Read = %q, %v", head, err)
	}
	if rest, err := readAllWithin(t, resp); err != nil || string(rest) != "456789" {
		t.Fatalf("ReadAllBody after a partial Read = %q, %v", rest, err)
	}
	if !cc.c.recvBalanced() {
		t.Errorf("connection window not whole: %+v", cc.c.connRecv)
	}
}

// TestLentBodyErrorMidBody: a stream that dies mid-body still yields
// the bytes that arrived, with the error behind them, as Read does.
func TestLentBodyErrorMidBody(t *testing.T) {
	cc, s := acceptRaw(t)
	done := fetchAsync(cc, "/dies")
	id := s.awaitRequest()
	s.respond(id, false)
	s.fr.WriteData(id, false, []byte("partial"))
	s.fr.WriteRSTStream(id, ErrCodeInternal)
	select {
	case r := <-done:
		var se StreamError
		if string(r.body) != "partial" || !errors.As(r.err, &se) || se.Code != ErrCodeInternal {
			t.Fatalf("ReadAllBody = %q, %v; want the partial body and the reset", r.body, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAllBody is stuck on a reset stream")
	}
}

// TestLentBodyCanceledMidBody: a local cancel orders things as a peer's
// reset does — the bytes that arrived, then the error — whichever of
// the canceller and the woken reader takes the stream's lock first.
func TestLentBodyCanceledMidBody(t *testing.T) {
	cc, s := acceptRaw(t)
	respCh := make(chan *Response, 1)
	done := make(chan fetched, 1)
	go func() {
		resp, err := cc.Get("/canceled")
		if err != nil {
			done <- fetched{nil, err}
			return
		}
		respCh <- resp
		body, err := ReadAllBody(resp)
		done <- fetched{body, err}
	}()
	id := s.awaitRequest()
	s.respond(id, false)
	s.fr.WriteData(id, false, []byte("partial"))
	go io.Copy(io.Discard, s.nc) // the RST_STREAM needs a reader on a pipe
	st := (<-respCh).Stream()
	waitCond(t, "the first block to arrive in the lent buffer", func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.lent && len(st.buf) == len("partial")
	})
	gone := errors.New("caller went away")
	st.cancel(gone)
	select {
	case r := <-done:
		if string(r.body) != "partial" || r.err != gone {
			t.Fatalf("ReadAllBody = %q, %v; want the partial body and %v", r.body, r.err, gone)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReadAllBody is stuck on a canceled stream")
	}
	if !cc.c.recvBalanced() {
		t.Errorf("connection window not whole: %+v", cc.c.connRecv)
	}
}

// TestStreamedBodyHoldsOneWindow: content-length sizes the whole buffer
// only for a body that is lent. A caller that streams with Read pins no
// more than the receive window it granted, however much was announced.
func TestStreamedBodyHoldsOneWindow(t *testing.T) {
	big := patterned(1 << 20)
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200, hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(len(big))})
		w.Write(big)
	}))
	resp, err := cc.Get("/big")
	if err != nil {
		t.Fatal(err)
	}
	st := resp.Stream()
	var got []byte
	for p := make([]byte, 1000); ; {
		n, err := resp.Body.Read(p)
		got = append(got, p[:n]...)
		st.mu.Lock()
		held, window := cap(st.buf), int(st.recv.target)
		st.mu.Unlock()
		if held > window {
			t.Fatalf("%d bytes read, %d held for a window of %d", len(got), held, window)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("streamed %d bytes, want %d intact", len(got), len(big))
	}
	if !cc.c.recvBalanced() {
		t.Errorf("connection window not whole: %+v", cc.c.connRecv)
	}
}

// bodyFunc is a response body that is not the stream's own.
type bodyFunc func(p []byte) (int, error)

func (f bodyFunc) Read(p []byte) (int, error) { return f(p) }
func (bodyFunc) Close() error                 { return nil }

// TestReadAllBodyOfReplacedBody: a Body the caller swapped in is read
// to its end like any reader; only the stream's own is lent.
func TestReadAllBodyOfReplacedBody(t *testing.T) {
	cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.Respond(200, []byte("abc"))
	}))
	resp, err := cc.Get("/abc")
	if err != nil {
		t.Fatal(err)
	}
	inner := resp.Body
	defer inner.Close()
	resp.Body = bodyFunc(func(p []byte) (int, error) {
		n, err := inner.Read(p)
		copy(p, bytes.ToUpper(p[:n]))
		return n, err
	})
	if got, err := ReadAllBody(resp); err != nil || string(got) != "ABC" {
		t.Fatalf("ReadAllBody through a decorator = %q, %v", got, err)
	}
	if !cc.c.recvBalanced() {
		t.Errorf("connection window not whole: %+v", cc.c.connRecv)
	}
}

// TestLentBodyNotTouchedByLaterTraffic: the slice ReadAllBody returns
// is the caller's; nothing the connection receives later lands in it.
func TestLentBodyNotTouchedByLaterTraffic(t *testing.T) {
	var tried, served pathLog
	cc, _ := startPair(t, Config{}, Config{}, echoInline(&tried, &served))
	fetch := func(path string) []byte {
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := readAllWithin(t, resp)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first := fetch("/i/first")
	for i := 0; i < 100; i++ {
		path := fmt.Sprintf("/%c/later/%d", "ig"[i%2], i)
		if got := fetch(path); string(got) != path {
			t.Fatalf("%s answered %q", path, got)
		}
	}
	if string(first) != "/i/first" || string(first[:cap(first)]) != "/i/first" {
		t.Fatalf("the first body now reads %q (capacity %d)", first, cap(first))
	}
}

// TestLentBodyCloseSendsNoReset: a stream whose body was lent and
// ended cleanly is finished; closing it afterwards resets nothing.
func TestLentBodyCloseSendsNoReset(t *testing.T) {
	cc, s := acceptRaw(t)
	closed := make(chan error, 1)
	go func() {
		resp, err := cc.Get("/clean")
		if err == nil {
			_, err = ReadAllBody(resp)
		}
		if err == nil {
			resp.Stream().Close()
			err = resp.Body.Close()
		}
		closed <- err
		cc.Ping(time.Second) // a frame the peer can wait for
	}()
	id := s.awaitRequest()
	s.respond(id, false)
	s.fr.WriteData(id, true, []byte("all of it"))
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for {
		fr, err := s.fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == FrameRSTStream {
			t.Fatalf("RST_STREAM(%v) for a stream that ended cleanly", rstCode(fr))
		}
		if fr.Type == FramePing {
			return
		}
	}
}

// TestConnWindowRefundedOnAbandonedBody: DATA nobody will read goes
// back to the connection's receive window, which all streams share —
// whether the body was closed unread, cancelled while lent, or left
// behind by a handler. Each variant abandons more than a whole window
// and then moves a body through the connection in full.
func TestConnWindowRefundedOnAbandonedBody(t *testing.T) {
	page := patterned(16 << 10)
	const abandons = 8 // two connection windows' worth
	fullGet := func(t *testing.T, cc *ClientConn) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		resp, err := cc.GetContext(ctx, "/page")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ReadAllBodyContext(ctx, resp); err != nil || !bytes.Equal(got, page) {
			t.Fatalf("GET after %d abandoned bodies: %d bytes, %v", abandons, len(got), err)
		}
	}
	whole := func(t *testing.T, c *conn) {
		t.Helper()
		waitCond(t, "the connection's receive window to be whole again", c.recvBalanced)
	}

	t.Run("closed unread", func(t *testing.T) {
		cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
			w.Respond(200, page)
		}))
		for i := 0; i < abandons; i++ {
			resp, err := cc.Get("/page")
			if err != nil {
				t.Fatal(err)
			}
			if i%4 != 0 { // mostly buffered when dropped, sometimes still on its way
				st := resp.Stream()
				waitCond(t, "the page to arrive", func() bool {
					st.mu.Lock()
					defer st.mu.Unlock()
					return len(st.buf) == len(page)
				})
			}
			resp.Body.Close()
		}
		fullGet(t, cc)
		whole(t, cc.c)
	})

	t.Run("canceled while lent", func(t *testing.T) {
		cc, _ := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
			if r.Path == "/page" {
				w.Respond(200, page)
				return
			}
			w.WriteHeaders(200)
			w.Write(page)
			<-r.Stream().Context().Done() // the body never ends
		}))
		for i := 0; i < abandons; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			resp, err := cc.GetContext(ctx, "/stall")
			if err != nil {
				t.Fatal(err)
			}
			result := make(chan error, 1)
			go func() {
				_, err := ReadAllBodyContext(ctx, resp)
				result <- err
			}()
			st := resp.Stream()
			waitCond(t, "the page to arrive in the lent buffer", func() bool {
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.lent && len(st.buf) == len(page)
			})
			cancel()
			// The server sends nothing more on the reset stream, so the
			// body cannot end before the cancel reaches the reader.
			if err := <-result; !errors.Is(err, context.Canceled) {
				t.Fatalf("ReadAllBodyContext = %v, want %v", err, context.Canceled)
			}
		}
		whole(t, cc.c) // credited on arrival, and not a second time by the cancel
		fullGet(t, cc)
		whole(t, cc.c)
	})

	t.Run("request body left unread", func(t *testing.T) {
		cc, sc := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
			if r.Path == "/echo" {
				body, _ := io.ReadAll(r.Body)
				w.Respond(200, body)
				return
			}
			r.Body.Read(make([]byte, 1)) // the upload has begun to arrive
			w.Respond(200, nil)          // and is answered unread
		}))
		post := func(path string) ([]byte, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := cc.DoContext(ctx, &Request{Method: "POST", Path: path, Body: bytes.NewReader(page)})
			if err != nil {
				return nil, err
			}
			return ReadAllBodyContext(ctx, resp)
		}
		for i := 0; i < abandons; i++ {
			// The reply may overtake the upload and reset it; either
			// way the server was sent DATA its handler never read.
			if _, err := post("/ignore"); errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("upload %d is stuck: %v", i, err)
			}
		}
		if got, err := post("/echo"); err != nil || !bytes.Equal(got, page) {
			t.Fatalf("upload after %d unread ones: %d bytes, %v", abandons, len(got), err)
		}
		whole(t, sc.c)
		whole(t, cc.c)
	})
}
