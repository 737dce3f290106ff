package http2

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"sww/internal/hpack"
)

// A Handler serves SWW/HTTP2 requests. Each request runs in its own
// goroutine, unless the handler is also an InlineHandler and served it
// on the read loop.
type Handler interface {
	ServeSWW(w *ResponseWriter, r *Request)
}

// An InlineHandler is a Handler that can answer some requests without
// waiting for anything — a lookup in memory, then TryRespond with bytes
// it already holds. The connection offers it every request that arrived
// complete (END_STREAM on its HEADERS) on the read loop itself, before
// any goroutine is spent on it.
//
// TryServeSWW reports whether it served the request with one successful
// TryRespond. On false it must have sent nothing, and the same request
// then goes to ServeSWW on a goroutine of its own, as if never offered.
// It runs on the goroutine that reads the connection's frames, so while
// it runs no other stream of the connection makes progress: it must not
// block — no I/O, no channel or lock wait of unbounded length, no
// generation — and it must not ask for Stream.Context, which nothing
// would ever need to cancel.
//
// Once TryServeSWW has returned true, w, r and everything reached
// through them (r.Header, r.Stream(), w.Stream()) belong to the
// connection again, which reuses them for a later request. A handler
// keeps values — the strings in them — never the pointers. A request
// declined with false, and every request ServeSWW sees, is not reused.
type InlineHandler interface {
	Handler
	TryServeSWW(w *ResponseWriter, r *Request) bool
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(w *ResponseWriter, r *Request)

// ServeSWW calls f(w, r).
func (f HandlerFunc) ServeSWW(w *ResponseWriter, r *Request) { f(w, r) }

// A Request is a decoded HTTP/2 request as seen by a server handler,
// or the request a client is about to send.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string

	// Header holds the regular (non-pseudo) header fields.
	Header []hpack.HeaderField

	// Body is the request body. On the server it reads the stream;
	// on the client, a non-nil Body is transmitted after the headers.
	Body io.Reader

	// PeerGen is the generative ability negotiated on the connection
	// that carried the request (server side). This is the paper's
	// core signal: GenNone means serve traditional content.
	PeerGen GenAbility

	// PeerImageModelID and PeerTextModelID are the client's
	// advertised models (§7 model negotiation), zero when absent.
	PeerImageModelID uint32
	PeerTextModelID  uint32

	stream *Stream
}

// HeaderValue returns the first value of the named regular header, or
// "" if absent.
func (r *Request) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// Stream exposes the underlying stream (for tests and advanced use).
func (r *Request) Stream() *Stream { return r.stream }

// initRequest validates the pseudo-header section (RFC 9113 §8.3) of
// an accepted stream's header block and fills in the stream's Request.
// Request.Header is the block's regular section, in place. It is called
// with c.mu held, which guards the negotiated state it copies.
func (st *Stream) initRequest() error {
	c, req := st.c, &st.req
	*req = Request{
		stream:           st,
		Body:             st,
		PeerGen:          c.negotiatedLocked(),
		PeerImageModelID: c.peer.imageModelID,
		PeerTextModelID:  c.peer.textModelID,
	}
	n := 0
	for ; n < len(st.hdr) && st.hdr[n].IsPseudo(); n++ {
		f := st.hdr[n]
		switch f.Name {
		case ":method":
			req.Method = f.Value
		case ":scheme":
			req.Scheme = f.Value
		case ":path":
			req.Path = f.Value
		case ":authority":
			req.Authority = f.Value
		default:
			return streamError(st.id, ErrCodeProtocol, "unknown pseudo-header %q", f.Name)
		}
	}
	req.Header = st.hdr[n:]
	for _, f := range req.Header {
		if f.IsPseudo() {
			return streamError(st.id, ErrCodeProtocol, "pseudo-header after regular header")
		}
		if f.Name != strings.ToLower(f.Name) {
			return streamError(st.id, ErrCodeProtocol, "uppercase header name %q", f.Name)
		}
	}
	if req.Method == "" || req.Path == "" || req.Scheme == "" {
		return streamError(st.id, ErrCodeProtocol, "missing required pseudo-headers")
	}
	return nil
}

// A ResponseWriter lets a handler send a response on a stream.
type ResponseWriter struct {
	stream       *Stream
	wroteHeaders bool
	finished     bool
}

// WriteHeaders sends the response HEADERS frame with :status and the
// supplied fields. It may be called once. On a stream that has died it
// encodes and sends nothing and reports why.
func (w *ResponseWriter) WriteHeaders(status int, fields ...hpack.HeaderField) error {
	return w.writeHeaders(status, false, fields)
}

// writeHeaders is WriteHeaders; with end set the HEADERS frame also
// carries END_STREAM, and the response is finished.
func (w *ResponseWriter) writeHeaders(status int, end bool, fields []hpack.HeaderField) error {
	if w.wroteHeaders {
		return fmt.Errorf("http2: WriteHeaders called twice on stream %d", w.stream.id)
	}
	if err := w.stream.sendErr(); err != nil {
		return err
	}
	w.wroteHeaders = true
	var store [12]hpack.HeaderField // on the stack; a longer list spills to the heap
	all := append(store[:0], hpack.HeaderField{Name: ":status", Value: statusText(status)})
	all = append(all, fields...)
	if err := w.stream.c.writeHeaderBlock(w.stream.id, all, end); err != nil || !end {
		return err
	}
	w.finished = true
	st := w.stream
	st.wroteData.Store(true) // the response is on its way: a reset now is no rapid reset
	st.mu.Lock()
	st.sendEnded = true
	st.mu.Unlock()
	return nil
}

// statusText is strconv.Itoa for :status, without the allocation for
// the codes a loaded tier sends per request: served, not found, shed.
func statusText(status int) string {
	switch status {
	case 200:
		return "200"
	case 404:
		return "404"
	case 503:
		return "503"
	}
	return strconv.Itoa(status)
}

// Write sends response body bytes, emitting default 200 headers first
// if the handler has not sent any.
func (w *ResponseWriter) Write(p []byte) (int, error) {
	if !w.wroteHeaders {
		if err := w.WriteHeaders(200); err != nil {
			return 0, err
		}
	}
	return w.stream.Write(p)
}

// Respond sends a complete response: status and fields, the whole body,
// end of stream. It is the one call a handler needs when it holds the
// body, and the only emitter of complete responses. body is copied
// before Respond returns and is the caller's to reuse from then on.
// END_STREAM rides on the frame that ends the response — the last DATA
// frame, or HEADERS when body is empty — so a complete response costs
// no empty DATA frame. When the peer can take the reply as it stands,
// its frames enter the writer's buffer as one unit (see TryRespond);
// otherwise Respond writes the same frames as the windows open and
// waits like WriteHeaders + Write.
func (w *ResponseWriter) Respond(status int, body []byte, fields ...hpack.HeaderField) error {
	if w.TryRespond(status, body, fields...) {
		return nil
	}
	return w.respond(status, body, fields)
}

// respond is Respond's long form, the one that waits.
func (w *ResponseWriter) respond(status int, body []byte, fields []hpack.HeaderField) error {
	if err := w.writeHeaders(status, len(body) == 0, fields); err != nil || len(body) == 0 {
		return err
	}
	w.finished = true
	return w.stream.closeSend(body)
}

// TryRespond is Respond for a caller that must not wait. It sends the
// complete response — the same frames and bytes Respond's long form
// would write, queued together — or, reporting false, nothing: when a
// response has already begun, when body or header block could exceed
// the peer's maximum frame size, when the stream's or the connection's
// send window does not cover the whole body now, or when another frame
// is being written at this instant or the writer's buffer is full or
// closed. A false TryRespond leaves the writer as it found it, so the
// caller (or another goroutine) may respond later; a true one has copied
// body, as Respond does.
func (w *ResponseWriter) TryRespond(status int, body []byte, fields ...hpack.HeaderField) bool {
	if w.wroteHeaders || w.finished {
		return false
	}
	if !w.stream.c.tryRespond(w.stream, status, body, fields) {
		return false
	}
	w.wroteHeaders, w.finished = true, true
	return true
}

// Finish half-closes the response. The server calls it automatically
// when the handler returns.
func (w *ResponseWriter) Finish() error {
	if w.finished {
		return nil
	}
	w.finished = true
	return w.stream.CloseSend()
}

// Stream exposes the underlying stream.
func (w *ResponseWriter) Stream() *Stream { return w.stream }

// A Server accepts HTTP/2 connections and dispatches requests to a
// Handler.
type Server struct {
	Handler Handler
	Config  Config
}

// Serve accepts connections from l until it is closed. Each
// connection is served on its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(nc)
	}
}

// ServeConn serves a single already-accepted connection, blocking
// until the connection dies.
func (s *Server) ServeConn(nc net.Conn) error {
	sc, err := s.newServerConn(nc)
	if err != nil {
		nc.Close()
		return err
	}
	sc.readLoop()
	return sc.closeError()
}

// newServerConn performs the server side of connection setup: read
// the client preface, then exchange SETTINGS.
func (s *Server) newServerConn(nc net.Conn) (*conn, error) {
	buf := make([]byte, len(ClientPreface))
	if _, err := io.ReadFull(nc, buf); err != nil {
		return nil, fmt.Errorf("http2: reading client preface: %w", err)
	}
	if string(buf) != ClientPreface {
		return nil, fmt.Errorf("http2: bad client preface %q", buf)
	}
	c := newConn(nc, s.Config, true)
	c.handler = s.Handler
	c.inline, _ = s.Handler.(InlineHandler)
	if err := c.sendInitial(); err != nil {
		return nil, err
	}
	if s.Config.KeepAliveInterval > 0 {
		go c.keepAliveLoop()
	}
	return c, nil
}

// ServerConn is a served connection handle, used when the caller
// wants to inspect negotiation state while the connection runs.
type ServerConn struct {
	ready chan struct{} // closed once the handshake finished
	c     *conn
	err   error
}

// StartConn begins serving nc in a background goroutine and returns
// immediately; the preface/SETTINGS handshake also happens in the
// background (the client may not even have connected its end yet).
// Use WaitClientSettings to observe handshake completion.
func (s *Server) StartConn(nc net.Conn) *ServerConn {
	sc := &ServerConn{ready: make(chan struct{})}
	go func() {
		c, err := s.newServerConn(nc)
		if err != nil {
			sc.err = err
			nc.Close()
			close(sc.ready)
			return
		}
		sc.c = c
		close(sc.ready)
		c.readLoop()
	}()
	return sc
}

// Negotiated returns the generative ability shared with the client.
// It blocks until the handshake finished and returns GenNone for
// failed handshakes.
func (sc *ServerConn) Negotiated() GenAbility {
	<-sc.ready
	if sc.err != nil {
		return GenNone
	}
	return sc.c.negotiated()
}

// WaitClientSettings blocks until the client's SETTINGS arrived (or
// the handshake failed).
func (sc *ServerConn) WaitClientSettings() error {
	<-sc.ready
	if sc.err != nil {
		return sc.err
	}
	return sc.c.waitPeerSettings()
}

// Close shuts the connection down gracefully.
func (sc *ServerConn) Close() error {
	<-sc.ready
	if sc.err != nil {
		return sc.err
	}
	return sc.c.shutdown()
}

// CloseContext shuts the connection down gracefully, draining the
// GOAWAY until the caller's deadline instead of the default window.
func (sc *ServerConn) CloseContext(ctx context.Context) error {
	<-sc.ready
	if sc.err != nil {
		return sc.err
	}
	return sc.c.shutdownContext(ctx)
}

// Done returns a channel closed when the connection dies (including
// keepalive teardown of a dead peer). For connections that failed the
// handshake it is closed immediately.
func (sc *ServerConn) Done() <-chan struct{} {
	<-sc.ready
	if sc.err != nil {
		closed := make(chan struct{})
		close(closed)
		return closed
	}
	return sc.c.doneCh
}
