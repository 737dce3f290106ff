package http2

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/hpack"
)

// nextFrame reads the next frame that is not a SETTINGS frame (the
// server's ACK of the peer's SETTINGS arrives whenever it arrives).
func (p *rawPeer) nextFrame() Frame {
	p.t.Helper()
	for {
		if fr := p.read(); fr.Type != FrameSettings {
			return fr
		}
	}
}

// expectPingAck sends a PING and requires the next frame to be its ACK:
// nothing else was queued for the peer before the PING was answered.
func (p *rawPeer) expectPingAck(data [8]byte) {
	p.t.Helper()
	if err := p.fr.WritePing(false, data); err != nil {
		p.t.Fatal(err)
	}
	if fr := p.nextFrame(); fr.Type != FramePing || !fr.Has(FlagAck) || string(fr.Payload) != string(data[:]) {
		p.t.Fatalf("got %v (payload %q), want the ACK of PING %q", fr.FrameHeader, fr.Payload, data[:])
	}
}

// finished reports whether finishServerStream is done with st: its last
// step gives up the request body.
func (st *Stream) finished() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.abandoned
}

// TestNoFramesOnDeadStream: once a stream is dead — reset by the peer,
// or reset by the server for a panicking handler — finishing it sends
// nothing more on it (RFC 9113 §5.1 allows only PRIORITY on a closed
// stream): no default HEADERS, no END_STREAM DATA. After the reset the
// next frame the peer reads is the ACK of a PING it sends.
func TestNoFramesOnDeadStream(t *testing.T) {
	handled := make(chan *Stream, 1)
	h := inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			if r.Path == "/panic-inline" {
				panic("inline")
			}
			return false
		},
		serve: func(w *ResponseWriter, r *Request) {
			handled <- r.Stream()
			if r.Path == "/panic" {
				panic("goroutine")
			}
			<-r.Stream().Context().Done() // /cancel: until the peer resets
		},
	}
	for _, tc := range []struct {
		path    string
		inline  bool // the handler runs on the read loop
		peerRST bool // the peer resets the stream; otherwise the server does
	}{
		{"/cancel", false, true},
		{"/panic", false, false},
		{"/panic-inline", true, false},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			p, _ := dialRawConn(t, Config{}, h)
			p.request(1, tc.path)
			if tc.peerRST {
				if err := p.fr.WriteRSTStream(1, ErrCodeCancel); err != nil {
					t.Fatal(err)
				}
			} else {
				if fr := p.nextFrame(); fr.Type != FrameHeaders || fr.StreamID != 1 {
					t.Fatalf("got %v, want the 500's HEADERS on stream 1", fr.FrameHeader)
				}
				if fr := p.nextFrame(); fr.Type != FrameRSTStream || fr.StreamID != 1 || rstCode(fr) != ErrCodeInternal {
					t.Fatalf("got %v, want RST_STREAM(INTERNAL_ERROR) on stream 1", fr.FrameHeader)
				}
			}
			if !tc.inline {
				// Whatever the finish sends is queued before it gives up the
				// request body.
				st := <-handled
				waitCond(t, "the handler's stream to be finished", st.finished)
			}
			p.expectPingAck([8]byte{'d', 'e', 'a', 'd'})
		})
	}
}

// TestInlineStreamReuseIsInvisible: eight requesters on one connection,
// half their requests answered on the read loop (each in the stream the
// previous inline reply left) and half declined to handler goroutines,
// which yield and then look at their request again. No stream handed to
// a goroutine ever carries another request: its path, its per-request
// header and its stream id hold for as long as the handler runs, and
// the stream is never offered again.
func TestInlineStreamReuseIsInvisible(t *testing.T) {
	const writers, rounds = 8, 200
	var mu sync.Mutex
	toGoroutine := map[*Stream]bool{} // every stream a goroutine was handed
	inlineStreams := map[*Stream]bool{}
	served := 0
	reply := func(r *Request) ([]byte, hpack.HeaderField) {
		return []byte(r.Path), hpack.HeaderField{Name: "x-echo", Value: r.HeaderValue("x-req")}
	}
	h := inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			mu.Lock()
			reused := toGoroutine[r.Stream()]
			mu.Unlock()
			if reused {
				t.Errorf("%s was offered in a stream a goroutine was handed", r.Path)
			}
			if strings.HasPrefix(r.Path, "/g/") {
				return false
			}
			body, echo := reply(r)
			if !w.TryRespond(200, body, echo) {
				return false
			}
			mu.Lock()
			inlineStreams[r.Stream()] = true
			served++
			mu.Unlock()
			return true
		},
		serve: func(w *ResponseWriter, r *Request) {
			st, path, req, id := r.Stream(), r.Path, r.HeaderValue("x-req"), r.Stream().ID()
			mu.Lock()
			if toGoroutine[st] {
				t.Errorf("%s: a goroutine was handed a stream a goroutine was handed before", path)
			}
			toGoroutine[st] = true
			mu.Unlock()
			for i := 0; i < 3; i++ {
				runtime.Gosched()
			}
			if r.Path != path || r.HeaderValue("x-req") != req || r.Stream() != st || st.ID() != id {
				t.Errorf("%s (x-req %s, stream %d) now reads %s (x-req %s, stream %d)",
					path, req, id, r.Path, r.HeaderValue("x-req"), r.Stream().ID())
			}
			body, echo := reply(r)
			w.Respond(200, body, echo)
		},
	}
	cc, _ := startPair(t, Config{}, Config{}, h)
	var wg sync.WaitGroup
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for seq := 0; seq < rounds; seq++ {
				path := fmt.Sprintf("/%c/%d/%d", "ig"[seq%2], id, seq)
				req := fmt.Sprintf("%d.%d", id, seq)
				resp, err := cc.Get(path, hpack.HeaderField{Name: "x-req", Value: req})
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				echo := resp.HeaderValue("x-echo")
				body, err := ReadAllBody(resp)
				if err != nil || string(body) != path || echo != req {
					t.Errorf("%s: body %q, x-echo %q (want %q), %v", path, body, echo, req, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if served == 0 || len(inlineStreams) >= served {
		t.Errorf("%d inline replies in %d streams: the read loop reused none", served, len(inlineStreams))
	}
}

// TestInlineStreamReuseLateFrames: a WINDOW_UPDATE and an RST_STREAM for
// a stream answered inline, arriving after the next request took over
// its Stream, address a closed stream and change nothing: the new
// stream's window stays where it was, its reply completes, and the
// reset is not scored as a rapid one.
func TestInlineStreamReuseLateFrames(t *testing.T) {
	var first, second *Stream
	release := make(chan struct{})
	running := make(chan struct{})
	h := inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			if r.Path == "/g/next" {
				return false
			}
			first = r.Stream()
			return w.TryRespond(200, []byte("first"))
		},
		serve: func(w *ResponseWriter, r *Request) {
			second = r.Stream()
			close(running)
			<-release
			w.Respond(200, []byte("second"))
		},
	}
	p, c := dialRawConn(t, Config{}, h)
	p.request(1, "/i/first")
	for ended := false; !ended; {
		fr := p.nextFrame()
		ended = fr.StreamID == 1 && fr.Has(FlagEndStream)
	}
	p.request(3, "/g/next")
	<-running
	if first != second {
		t.Fatal("stream 3 did not take over the stream answered inline")
	}
	window := second.send.available()
	if err := p.fr.WriteWindowUpdate(1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := p.fr.WriteRSTStream(1, ErrCodeCancel); err != nil {
		t.Fatal(err)
	}
	p.expectPingAck([8]byte{'l', 'a', 't', 'e'}) // both frames have been read
	if got := second.send.available(); got != window {
		t.Errorf("stream 3's send window %d after a WINDOW_UPDATE for stream 1, want %d", got, window)
	}
	if err := second.sendErr(); err != nil {
		t.Errorf("stream 3 died of a reset for stream 1: %v", err)
	}
	c.abuse.mu.Lock()
	rapid := c.abuse.buckets[AbuseRapidReset].cur
	c.abuse.mu.Unlock()
	if rapid != 0 {
		t.Errorf("%d rapid resets scored for a stream answered inline", rapid)
	}
	close(release)
	var body []byte
	for ended := false; !ended; {
		fr := p.nextFrame()
		if fr.StreamID != 3 {
			t.Fatalf("got %v, want stream 3's reply", fr.FrameHeader)
		}
		if fr.Type == FrameData {
			body = append(body, fr.Payload...)
		}
		ended = fr.Has(FlagEndStream)
	}
	if string(body) != "second" {
		t.Fatalf("stream 3's body = %q", body)
	}
}

// TestInlineStreamReuseSkipsContextCaller: a stream answered inline
// becomes the next request's, unless its handler asked for Context —
// which breaks the InlineHandler contract, so the stream is left to
// whoever still holds it and its context is cancelled when the reply is
// finished. The context lives in the stream, so no stream whose context
// was handed out is ever reused: a handler goroutine's stream (/g/ctx)
// is not reused either, and its context stays cancelled.
func TestInlineStreamReuseSkipsContextCaller(t *testing.T) {
	var mu sync.Mutex // the read loop and the /g/ctx goroutine both write
	streams := map[string]*Stream{}
	contexts := map[string]context.Context{}
	take := func(r *Request) {
		mu.Lock()
		defer mu.Unlock()
		streams[r.Path] = r.Stream()
		if strings.HasSuffix(r.Path, "/ctx") {
			contexts[r.Path] = r.Stream().Context()
		}
	}
	h := inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			if strings.HasPrefix(r.Path, "/g/") {
				return false
			}
			take(r)
			return w.TryRespond(200, []byte(r.Path))
		},
		serve: func(w *ResponseWriter, r *Request) {
			if !strings.HasPrefix(r.Path, "/g/") {
				t.Errorf("%s reached a goroutine", r.Path)
			}
			take(r)
			w.Respond(200, []byte(r.Path))
		},
	}
	cc, _ := startPair(t, Config{}, Config{}, h)
	for _, path := range []string{"/a", "/b", "/ctx", "/c", "/g/ctx", "/d", "/e"} {
		resp, err := cc.Get(path)
		if err != nil {
			t.Fatal(err)
		}
		if body, err := ReadAllBody(resp); err != nil || string(body) != path {
			t.Fatalf("GET %s = %q, %v", path, body, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// /c was read after /ctx was finished.
	if streams["/b"] != streams["/a"] || streams["/ctx"] != streams["/b"] || streams["/e"] != streams["/d"] {
		t.Fatal("inline replies did not reuse their stream")
	}
	if streams["/c"] == streams["/ctx"] {
		t.Error("the stream whose handler asked for Context was reused")
	}
	for _, p := range []string{"/d", "/e"} {
		if streams[p] == streams["/g/ctx"] {
			t.Errorf("the handler goroutine's stream was reused for %s", p)
		}
	}
	waitCond(t, "the handler goroutine's context to be cancelled", func() bool { return contexts["/g/ctx"].Err() != nil })
	for p, ctx := range contexts {
		if ctx.Err() != context.Canceled {
			t.Errorf("%s: context.Err() = %v after its reply was finished, want %v", p, ctx.Err(), context.Canceled)
		}
	}
}

// spareSettled reports whether c's spare may be taken: the read loop is
// done with the frame it was handling when the spare was retired.
func (c *conn) spareSettled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames.Load() >= c.spareAt
}

// getAsync runs a GET on a goroutine of its own, for tests whose own
// goroutine plays a rawServer, and delivers its response, nil on error.
func getAsync(t *testing.T, cc *ClientConn, path string) <-chan *Response {
	done := make(chan *Response, 1)
	go func() {
		resp, err := cc.Get(path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
		}
		done <- resp
	}()
	return done
}

// get issues a GET of path against s, answers it with response
// HEADERS, and returns the response and its stream id.
func (s *rawServer) get(cc *ClientConn, path string) (*Response, uint32) {
	s.t.Helper()
	pending := getAsync(s.t, cc, path)
	id := s.awaitRequest()
	s.respond(id, false)
	resp := <-pending
	if resp == nil {
		s.t.FailNow()
	}
	return resp, id
}

// TestClientStreamReuseIsInvisible: eight requesters on one client
// connection, half their requests answered on the server's read loop
// and half on handler goroutines. Each opens its GET in the stream the
// last clean exchange retired, when there is one, and reads its status
// and headers, yields, and reads them again before ReadAllBody. Every
// body and header belongs to its own request, and consecutive GETs do
// share streams.
func TestClientStreamReuseIsInvisible(t *testing.T) {
	const writers, rounds = 8, 200
	reply := func(w *ResponseWriter, r *Request, try bool) bool {
		echo := hpack.HeaderField{Name: "x-echo", Value: r.HeaderValue("x-req")}
		if try {
			return w.TryRespond(200, []byte(r.Path), echo)
		}
		return w.Respond(200, []byte(r.Path), echo) == nil
	}
	h := inlineFuncs{
		try: func(w *ResponseWriter, r *Request) bool {
			return !strings.HasPrefix(r.Path, "/g/") && reply(w, r, true)
		},
		serve: func(w *ResponseWriter, r *Request) { reply(w, r, false) },
	}
	cc, _ := startPair(t, Config{}, Config{}, h)
	var mu sync.Mutex
	streams := map[*Stream]int{} // GETs each stream carried
	var wg sync.WaitGroup
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for seq := 0; seq < rounds; seq++ {
				path := fmt.Sprintf("/%c/%d/%d", "ig"[seq%2], id, seq)
				req := fmt.Sprintf("%d.%d", id, seq)
				resp, err := cc.Get(path, hpack.HeaderField{Name: "x-req", Value: req})
				if err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				st := resp.Stream()
				sid := st.ID()
				for i := 0; i < 3; i++ {
					runtime.Gosched()
				}
				if resp.Status != 200 || resp.HeaderValue("x-echo") != req || resp.Stream() != st || st.ID() != sid {
					t.Errorf("%s (x-req %s, stream %d) reads status %d, x-echo %q, stream %d",
						path, req, sid, resp.Status, resp.HeaderValue("x-echo"), resp.Stream().ID())
					return
				}
				mu.Lock()
				streams[st]++
				mu.Unlock()
				if body, err := ReadAllBody(resp); err != nil || string(body) != path {
					t.Errorf("%s: body %q, %v", path, body, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	gets := writers * rounds
	t.Logf("%d GETs ran in %d streams", gets, len(streams))
	if len(streams)*2 > gets {
		t.Errorf("fewer than half the GETs were reused")
	}
}

// TestClientStreamReuseLateFrames: frames for a finished stream id
// reach nothing once another request runs in its Stream, as if the
// stream were gone: the WINDOW_UPDATE and RST_STREAM change nothing, and
// the DATA is answered with RST_STREAM(STREAM_CLOSED). Then the read
// loop is made to hold a stream it looked up, parked on its send window
// by a WINDOW_UPDATE, while ReadAllBody takes its body: the next request
// does not get that stream until the loop has finished the frame, so
// the update lands on the finished stream. Stream 3's and stream 7's
// windows, errors and bodies are their own, and the connection carries
// on.
func TestClientStreamReuseLateFrames(t *testing.T) {
	cc, s := acceptRaw(t)
	c := cc.c
	reply := func(id uint32, resp <-chan *Response, body string) {
		t.Helper()
		s.fr.WriteData(id, true, []byte(body))
		r := <-resp
		if r == nil {
			t.FailNow()
		}
		if got, err := ReadAllBody(r); err != nil || string(got) != body {
			t.Fatalf("stream %d: body %q, %v; want %q", id, got, err, body)
		}
	}
	// untouched checks that st, carrying stream id, still has the send
	// window it had before the late frames, and no error.
	untouched := func(id uint32, st *Stream, window int64) {
		t.Helper()
		if got := st.send.available(); got != window {
			t.Errorf("stream %d's send window %d after late frames, want %d", id, got, window)
		}
		if err := st.sendErr(); err != nil {
			t.Errorf("stream %d died of late frames: %v", id, err)
		}
	}

	resp, id := s.get(cc, "/one")
	st := resp.Stream()
	s.fr.WriteData(id, true, []byte("one"))
	if body, err := ReadAllBody(resp); err != nil || string(body) != "one" {
		t.Fatalf("stream 1: body %q, %v", body, err)
	}
	waitCond(t, "the read loop to be done with stream 1's frames", c.spareSettled)
	next := getAsync(t, cc, "/three")
	if id := s.awaitRequest(); id != 3 {
		t.Fatalf("the next request opened stream %d, want 3", id)
	}
	if c.lookupStream(3) != st {
		t.Fatal("stream 3 does not run in stream 1's Stream")
	}
	window := st.send.available()
	s.fr.WriteWindowUpdate(1, 1000)
	s.fr.WriteRSTStream(1, ErrCodeCancel)
	s.fr.WriteData(1, false, []byte("late"))
	s.fr.WritePing(false, [8]byte{'l', 'a', 't', 'e'})
	sawClosed := false
	for acked := false; !acked; {
		fr, err := s.fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case fr.Type == FramePing && fr.Has(FlagAck):
			acked = true
		case fr.Type == FrameRSTStream && fr.StreamID == 1 && rstCode(fr) == ErrCodeStreamClosed:
			sawClosed = true
		case fr.Type == FrameWindowUpdate && fr.StreamID == 0: // the late DATA's refund
		default:
			t.Fatalf("got %v, want RST_STREAM(STREAM_CLOSED) for stream 1 and the PING ACK", fr.FrameHeader)
		}
	}
	if !sawClosed {
		t.Error("DATA for stream 1 was not answered with RST_STREAM(STREAM_CLOSED)")
	}
	untouched(3, st, window)
	s.respond(3, false)
	reply(3, next, "three")

	resp, id = s.get(cc, "/five")
	held := resp.Stream()
	s.fr.WriteData(id, true, []byte("five"))
	waitCond(t, "stream 5's body to end", func() bool {
		held.mu.Lock()
		defer held.mu.Unlock()
		return held.recvEnded
	})
	held.send.mu.Lock()
	s.fr.WriteWindowUpdate(id, 1000)
	waitCond(t, "the read loop to wait on stream 5's send window", func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*sendFlow).add(")
	})
	if body, err := ReadAllBody(resp); err != nil || string(body) != "five" {
		held.send.mu.Unlock()
		t.Fatalf("stream 5: body %q, %v", body, err)
	}
	next = getAsync(t, cc, "/seven")
	if id := s.awaitRequest(); id != 7 {
		held.send.mu.Unlock()
		t.Fatalf("the next request opened stream %d, want 7", id)
	}
	seven := c.lookupStream(7)
	if seven == held {
		// init zeroed the mutex the read loop waits on: neither may
		// go on.
		t.Fatal("stream 7 runs in the Stream the read loop holds")
	}
	window = seven.send.available()
	held.send.mu.Unlock()
	s.fr.WritePing(false, [8]byte{'h', 'e', 'l', 'd'})
	for acked := false; !acked; {
		fr, err := s.fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		acked = fr.Type == FramePing && fr.Has(FlagAck)
	}
	untouched(7, seven, window)
	s.respond(7, false)
	reply(7, next, "seven")
}

// A gatedCtx is a context the test ends. Its AfterFunc hands the
// callback to the test, and ReadAllBodyContext's hook, once it has
// fired, waits in Value (where context.Cause asks for the cause) until
// the gate opens: the hook has fired, and its stream is not cancelled
// yet.
type gatedCtx struct {
	done      chan struct{}
	fired     atomic.Bool
	callbacks chan func()
	waiting   chan struct{}
	gate      chan struct{}
}

func newGatedCtx() *gatedCtx {
	return &gatedCtx{
		done:      make(chan struct{}),
		callbacks: make(chan func(), 1),
		waiting:   make(chan struct{}, 1),
		gate:      make(chan struct{}),
	}
}

func (*gatedCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *gatedCtx) Done() <-chan struct{}     { return c.done }

func (c *gatedCtx) Err() error {
	if c.fired.Load() {
		return context.Canceled
	}
	return nil
}

func (c *gatedCtx) Value(any) any {
	if c.fired.Load() && calledFrom("http2.ReadAllBodyContext.func") {
		c.waiting <- struct{}{}
		<-c.gate
	}
	return nil
}

func (c *gatedCtx) AfterFunc(f func()) func() bool {
	c.callbacks <- f
	return func() bool { return true }
}

// fire waits for a callback to be registered on the context, ends the
// context and runs the callback.
func (c *gatedCtx) fire() {
	f := <-c.callbacks
	c.fired.Store(true)
	close(c.done)
	f()
}

// calledFrom reports whether a function whose name contains fn is on
// the caller's stack.
func calledFrom(fn string) bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestClientStreamNotReused: only a body ReadAllBody takes whole to a
// clean END_STREAM retires its stream for the connection's next GET.
// A body closed early, read to io.EOF with Body.Read, or reset by the
// peer mid-body leaves its stream to the garbage collector, and so
// does a ReadAllBodyContext whose context fired mid-body, even when
// the body then ends before the hook has cancelled the stream.
func TestClientStreamNotReused(t *testing.T) {
	cc, s := acceptRaw(t)
	for _, tc := range []struct {
		name   string
		reused bool
		// end ends the exchange; what it returns, if anything, runs
		// once the next GET has been checked.
		end func(resp *Response, id uint32) (after func())
	}{
		{"read whole", true, func(resp *Response, id uint32) func() {
			s.fr.WriteData(id, true, []byte("whole"))
			if body, err := ReadAllBody(resp); err != nil || string(body) != "whole" {
				t.Fatalf("ReadAllBody = %q, %v", body, err)
			}
			return nil
		}},
		{"closed early", false, func(resp *Response, id uint32) func() {
			resp.Body.Close()
			return nil
		}},
		{"read to EOF", false, func(resp *Response, id uint32) func() {
			s.fr.WriteData(id, true, []byte("read"))
			if body, err := io.ReadAll(resp.Body); err != nil || string(body) != "read" {
				t.Fatalf("io.ReadAll = %q, %v", body, err)
			}
			return nil
		}},
		{"reset by peer", false, func(resp *Response, id uint32) func() {
			s.fr.WriteData(id, false, []byte("par"))
			s.fr.WriteRSTStream(id, ErrCodeInternal)
			if _, err := ReadAllBody(resp); err == nil {
				t.Fatal("ReadAllBody of a reset stream succeeded")
			}
			return nil
		}},
		{"context fired mid-body", false, func(resp *Response, id uint32) func() {
			ctx := newGatedCtx()
			st := resp.Stream()
			s.fr.WriteData(id, false, []byte("part"))
			read := make(chan fetched, 1)
			go func() {
				body, err := ReadAllBodyContext(ctx, resp)
				read <- fetched{body, err}
			}()
			ctx.fire()
			<-ctx.waiting
			s.fr.WriteData(id, true, []byte("rest"))
			if r := <-read; r.err != nil || string(r.body) != "partrest" {
				close(ctx.gate)
				t.Fatalf("ReadAllBodyContext = %q, %v", r.body, r.err)
			}
			return func() {
				close(ctx.gate)
				waitCond(t, "the hook to cancel the stream", func() bool { return st.sendErr() != nil })
			}
		}},
	} {
		resp, id := s.get(cc, "/"+strings.ReplaceAll(tc.name, " ", "-"))
		st := resp.Stream()
		after := tc.end(resp, id)
		waitCond(t, "the read loop to be done with the stream's frames", cc.c.spareSettled)
		next, id := s.get(cc, "/next")
		if reused := next.Stream() == st; reused != tc.reused {
			t.Errorf("%s: the next GET ran in the same Stream: %t, want %t", tc.name, reused, tc.reused)
		}
		if after != nil {
			after()
		}
		s.fr.WriteData(id, true, []byte("next"))
		if body, err := ReadAllBody(next); err != nil || string(body) != "next" {
			t.Fatalf("%s: the next GET = %q, %v", tc.name, body, err)
		}
	}
}
