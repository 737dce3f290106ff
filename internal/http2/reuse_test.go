package http2

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

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
				body, err := ReadAllBody(resp)
				if err != nil || string(body) != path || resp.HeaderValue("x-echo") != req {
					t.Errorf("%s: body %q, x-echo %q (want %q), %v", path, body, resp.HeaderValue("x-echo"), req, err)
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
	p, c := dialRawConn(t, Config{AbusePolicy: &AbusePolicy{RapidResetBudget: 1}}, h)
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
