package http2

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
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

// TestContextAfterStreamDeath: the stream context is built on demand,
// so one first asked for after the stream died must be born canceled;
// one handed out earlier is canceled by the death; and a stream nobody
// asks never builds one.
func TestContextAfterStreamDeath(t *testing.T) {
	st := newTestStream(t)
	st.closeWithError(ErrPeerClosed)
	if st.ctx != nil {
		t.Fatal("a context was built though nobody asked for one")
	}
	select {
	case <-st.Context().Done():
	default:
		t.Fatal("Context() of a dead stream is not canceled")
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
	t.Cleanup(func() { cEnd.Close() })
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
	cc, _ := startPair(t, Config{}, Config{}, echoInline(&tried, &served))
	resp, err := cc.Do(&Request{Method: "POST", Path: "/upload", Body: strings.NewReader("payload")})
	if err != nil {
		t.Fatal(err)
	}
	if body, err := ReadAllBody(resp); err != nil || string(body) != "/upload" {
		t.Fatalf("POST reply = %q, %v", body, err)
	}
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

// TestInlineDeclinesOnSaturatedWriter: against a peer that has stopped
// reading, with maxQueuedBytes waiting in the writer, an inline attempt
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
			for i := 0; i < 2*maxQueuedBytes/len(chunk); i++ {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		},
	}
	p, c := dialRawConn(t, Config{}, h, Setting{SettingInitialWindowSize, 1 << 30})
	if err := p.fr.WriteWindowUpdate(0, 1<<30); err != nil {
		t.Fatal(err)
	}
	p.request(1, "/flood")
	queued := func() int {
		c.aw.mu.Lock()
		defer c.aw.mu.Unlock()
		return c.aw.queued
	}
	waitCond(t, "the writer queue to saturate", func() bool { return queued() >= maxQueuedBytes })

	p.request(3, "/small")
	select {
	case d := <-declined:
		if !d {
			t.Fatal("TryRespond queued a reply past maxQueuedBytes")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the inline attempt is stuck behind the saturated writer")
	}
	before := c.connSend.available()
	if err := p.fr.WriteWindowUpdate(0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := p.fr.WriteRSTStream(1, ErrCodeCancel); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "WINDOW_UPDATE and RST_STREAM to be applied", func() bool {
		return c.connSend.available() == before+1000 && c.lookupStream(1) == nil
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
