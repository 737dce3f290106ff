package http2

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"sww/internal/hpack"
)

// A Response is a decoded HTTP/2 response. It lives inside its stream.
//
// Once ReadAllBody or ReadAllBodyContext has returned a body it took
// to its end, the response and everything reached through it (Header,
// Body, Stream()) belong to the connection again, which reuses them
// for a later request. A caller keeps values — the status, the strings
// in the header — read before that call, never the pointers. A
// response whose body was closed, read with Body.Read, reset or
// cancelled is not reused.
type Response struct {
	Status int
	Header []hpack.HeaderField

	// Body streams the response payload. It must be drained or closed
	// to release stream resources.
	Body io.ReadCloser

	stream *Stream
}

// HeaderValue returns the first value of the named header, or "".
func (r *Response) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// Stream exposes the underlying stream. A stream whose Context was
// asked for is not reused.
func (r *Response) Stream() *Stream { return r.stream }

// A ClientConn is the client end of an HTTP/2 connection.
type ClientConn struct {
	c *conn
}

// NewClientConn performs the client side of connection setup over nc:
// preface, SETTINGS exchange (including SETTINGS_GEN_ABILITY when
// cfg.GenAbility is nonzero), and waits for the server's SETTINGS so
// that Negotiated is immediately meaningful, matching the paper's
// client flow ("exchanging settings, advertising its generation
// ability and logging the server's ability", §5.2).
func NewClientConn(nc net.Conn, cfg Config) (*ClientConn, error) {
	c := newConn(nc, cfg, false)
	if _, err := io.WriteString(nc, ClientPreface); err != nil {
		c.aw.close() // newConn started the writer goroutine
		nc.Close()
		return nil, fmt.Errorf("http2: writing preface: %w", err)
	}
	// Queue our SETTINGS before the read loop exists: the loop ACKs the
	// server's SETTINGS the moment it reads them, and a server whose
	// first frame from us is that ACK refuses the connection (§3.4).
	// Queuing cannot block on an unbuffered transport (net.Pipe) — the
	// async writer does the transport write.
	if err := c.sendInitial(); err != nil {
		c.shutdown()
		return nil, err
	}
	go c.readLoop()
	if err := c.waitPeerSettings(); err != nil {
		c.shutdown()
		return nil, err
	}
	if cfg.KeepAliveInterval > 0 {
		go c.keepAliveLoop()
	}
	return &ClientConn{c: c}, nil
}

// Negotiated returns the generative ability common to both endpoints.
func (cc *ClientConn) Negotiated() GenAbility { return cc.c.negotiated() }

// ServerGenAbility returns the raw ability the server advertised and
// whether it advertised SETTINGS_GEN_ABILITY at all.
func (cc *ClientConn) ServerGenAbility() (GenAbility, bool) { return cc.c.peerGenAbility() }

// ServerModelIDs returns the model identifiers the server advertised
// via SETTINGS_GEN_IMAGE_MODEL / SETTINGS_GEN_TEXT_MODEL (zero when
// not advertised).
func (cc *ClientConn) ServerModelIDs() (image, text uint32) { return cc.c.peerModelIDs() }

// Ping round-trips a PING frame.
func (cc *ClientConn) Ping(timeout time.Duration) error { return cc.c.ping(timeout) }

// Close shuts the connection down with GOAWAY(NO_ERROR).
func (cc *ClientConn) Close() error { return cc.c.shutdown() }

// CloseContext is Close bounded by the caller's deadline: the GOAWAY
// flush drains until ctx expires instead of the configured default.
func (cc *ClientConn) CloseContext(ctx context.Context) error { return cc.c.shutdownContext(ctx) }

// Get issues a simple GET request.
func (cc *ClientConn) Get(path string, extra ...hpack.HeaderField) (*Response, error) {
	return cc.Do(&Request{Method: "GET", Scheme: "https", Path: path, Authority: "sww.local", Header: extra})
}

// GetContext is Get under a context: cancellation or deadline expiry
// aborts the request's stream with RST_STREAM(CANCEL).
func (cc *ClientConn) GetContext(ctx context.Context, path string, extra ...hpack.HeaderField) (*Response, error) {
	return cc.DoContext(ctx, &Request{Method: "GET", Scheme: "https", Path: path, Authority: "sww.local", Header: extra})
}

// Do sends req and waits for the response headers. The response body
// streams afterwards.
func (cc *ClientConn) Do(req *Request) (*Response, error) {
	return cc.DoContext(context.Background(), req)
}

// DoContext is Do under a context. The context governs the whole
// exchange — header write, body copy, the wait for response headers
// and the response body, until the body is read to its end or closed;
// when it fires, the stream is cancelled so blocked flow-control
// writers, header waits and body reads unwind promptly. The streams a
// connection opens under one cancelable context share one hook on it,
// which ReadAllBodyContext under the same context reuses.
func (cc *ClientConn) DoContext(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	method := req.Method
	if method == "" {
		method = "GET"
	}
	scheme := req.Scheme
	if scheme == "" {
		scheme = "https"
	}
	path := req.Path
	if path == "" {
		path = "/"
	}
	var store [12]hpack.HeaderField // on the stack; a longer list spills to the heap
	fields := append(store[:0],
		hpack.HeaderField{Name: ":method", Value: method},
		hpack.HeaderField{Name: ":scheme", Value: scheme},
		hpack.HeaderField{Name: ":path", Value: path})
	if req.Authority != "" {
		fields = append(fields, hpack.HeaderField{Name: ":authority", Value: req.Authority})
	}
	fields = append(fields, req.Header...)

	endStream := req.Body == nil

	// Allocate the stream id and write its opening HEADERS as one
	// atomic step: stream ids must reach the peer in increasing order,
	// and a gap between allocation and write lets a concurrent request
	// emit its HEADERS first (see conn.openMu).
	cc.c.openMu.Lock()
	st, err := cc.c.openStream()
	if err != nil {
		cc.c.openMu.Unlock()
		return nil, err
	}
	err = cc.c.writeHeaderBlock(st.id, fields, endStream)
	cc.c.openMu.Unlock()
	if err != nil {
		st.Close()
		return nil, err
	}
	if ctx.Done() != nil {
		cc.c.hookContext(st, ctx)
	}
	if endStream {
		st.mu.Lock()
		st.sendEnded = true
		st.mu.Unlock()
	} else {
		if _, err := io.Copy(st, req.Body); err != nil {
			st.Close()
			return nil, err
		}
		if err := st.CloseSend(); err != nil {
			st.Close()
			return nil, err
		}
	}

	hdrs, err := st.awaitHeaders()
	if err != nil {
		st.Close()
		return nil, err
	}
	// :status is the only response pseudo-header and pseudo-headers
	// lead the block (§8.3), so the regular section is the rest of the
	// stream-owned list, in place.
	if len(hdrs) == 0 || hdrs[0].Name != ":status" {
		st.Close()
		return nil, streamError(st.id, ErrCodeProtocol, "response missing :status")
	}
	code, err := strconv.Atoi(hdrs[0].Value)
	if err != nil || code == 0 {
		st.Close()
		return nil, streamError(st.id, ErrCodeProtocol, "bad :status %q", hdrs[0].Value)
	}
	st.body = responseBody{st: st}
	st.resp = Response{Status: code, Header: hdrs[1:], Body: &st.body, stream: st}
	return &st.resp, nil
}

// responseBody adapts a stream to io.ReadCloser with cleanup on EOF.
type responseBody struct {
	st   *Stream
	done bool
}

func (b *responseBody) Read(p []byte) (int, error) {
	n, err := b.st.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

// finish records a clean end of the body: the stream is done with.
func (b *responseBody) finish() {
	if !b.done {
		b.done = true
		b.st.c.removeStream(b.st.id)
	}
}

func (b *responseBody) Close() error {
	if b.done {
		return nil
	}
	b.done = true
	return b.st.Close()
}

// ReadAllBody drains and closes a response body. The body is not
// copied: once it is complete the stream's receive buffer, sized from
// content-length, is returned as it is and belongs to the caller. Only
// a Body that is not the one DoContext installed is read with
// io.ReadAll.
//
// A body taken to its END_STREAM ends the exchange, and the
// connection's next request reuses its stream: resp is not valid once
// ReadAllBody returns (see Response). Read the status and headers
// first.
func ReadAllBody(resp *Response) ([]byte, error) { return readAllBody(resp, nil) }

// readAllBody is ReadAllBody. stop, when not nil, unregisters the
// cancel hook ReadAllBodyContext put on its context. Only a clean end
// — END_STREAM, no error, the body not read or closed before, and
// stop's hook kept from firing — retires the stream for the
// connection's next request, and that is the last thing done to it.
// Any other end leaves the stream to the garbage collector.
func readAllBody(resp *Response, stop func() bool) ([]byte, error) {
	b, ok := resp.Body.(*responseBody)
	if !ok {
		if stop != nil {
			defer stop()
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	body, err := b.st.takeBody()
	fired := stop != nil && !stop()
	switch {
	case err != nil:
		b.Close()
	case b.done:
	case fired:
		b.finish()
	default:
		b.done = true
		b.st.c.retire(b.st)
	}
	return body, err
}

// ReadAllBodyContext drains and closes a response body under a
// context: when ctx fires mid-stream (a stalled or blackholed peer),
// the underlying stream is cancelled so the read unwinds instead of
// hanging on a window that never refills. Under the context the
// request was made with, DoContext's hook already does that; any other
// cancelable context is hooked for the length of the read. Like
// ReadAllBody, it leaves resp invalid when it returns.
func ReadAllBodyContext(ctx context.Context, resp *Response) ([]byte, error) {
	var stop func() bool
	if st, done := resp.stream, ctx.Done(); done != nil && !st.hookedOn(done) {
		stop = context.AfterFunc(ctx, func() {
			st.cancel(fmt.Errorf("http2: body read canceled: %w", context.Cause(ctx)))
		})
	}
	body, err := readAllBody(resp, stop)
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return body, err
}
