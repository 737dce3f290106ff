package http3

import (
	"context"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"sww/internal/http2"
	"sww/internal/quic"
)

// Config mirrors the SWW-relevant parts of the HTTP/2 configuration.
type Config struct {
	// GenAbility is advertised in the HTTP/3 SETTINGS frame on the
	// control stream. GenNone suppresses the parameter.
	GenAbility http2.GenAbility

	// ImageModelID / TextModelID mirror §7 model negotiation.
	ImageModelID uint32
	TextModelID  uint32
}

// handshakeTimeout bounds the wait for the peer's control-stream
// SETTINGS.
const handshakeTimeout = 10 * time.Second

// conn is the shared endpoint machinery: control streams in both
// directions plus the peer's settings.
type conn struct {
	sess *quic.Session
	cfg  Config

	mu           sync.Mutex // guards peerSettings
	peerSettings map[uint64]uint64
	seenOnce     sync.Once // a second control stream must not re-close peerSeen
	peerSeen     chan struct{}
}

func newConn(sess *quic.Session, cfg Config) *conn {
	return &conn{sess: sess, cfg: cfg, peerSeen: make(chan struct{})}
}

// startControl opens the local control stream and consumes the
// peer's.
func (c *conn) startControl() error {
	ctrl, err := c.sess.OpenUniStream()
	if err != nil {
		return err
	}
	if _, err := ctrl.Write(quic.AppendVarint(nil, StreamTypeControl)); err != nil {
		return err
	}
	settings := map[uint64]uint64{
		SettingQPACKMaxTableCapacity: 0, // dynamic-table-free QPACK
		SettingQPACKBlockedStreams:   0,
	}
	if c.cfg.GenAbility != http2.GenNone {
		settings[SettingGenAbility] = uint64(c.cfg.GenAbility)
	}
	if c.cfg.ImageModelID != 0 {
		settings[SettingGenImageModel] = uint64(c.cfg.ImageModelID)
	}
	if c.cfg.TextModelID != 0 {
		settings[SettingGenTextModel] = uint64(c.cfg.TextModelID)
	}
	if err := writeFrame(ctrl, FrameSettings, encodeSettings(settings)); err != nil {
		return err
	}

	go c.consumeUniStreams()
	return nil
}

// consumeUniStreams accepts peer unidirectional streams; the control
// stream delivers SETTINGS, unknown stream types are drained and
// dropped (RFC 9114 §6.2: "streams of unknown types ... MUST either
// be aborted or ignored").
func (c *conn) consumeUniStreams() {
	for {
		st, err := c.sess.AcceptUniStream()
		if err != nil {
			return
		}
		go func(st *quic.Stream) {
			stype, err := quic.ReadVarintFrom(st)
			if err != nil {
				return
			}
			if stype != StreamTypeControl {
				io.Copy(io.Discard, st)
				return
			}
			ftype, payload, err := readFrame(st)
			if err != nil || ftype != FrameSettings {
				return
			}
			settings, err := decodeSettings(payload)
			if err != nil {
				return
			}
			c.mu.Lock()
			if c.peerSettings == nil {
				c.peerSettings = settings
			}
			c.mu.Unlock()
			c.seenOnce.Do(func() { close(c.peerSeen) })
			// Keep the control stream open (further frames such as
			// GOAWAY would arrive here).
			io.Copy(io.Discard, st)
		}(st)
	}
}

func (c *conn) waitPeerSettings() error {
	select {
	case <-c.peerSeen:
		return nil
	case <-time.After(handshakeTimeout):
		return fmt.Errorf("http3: no SETTINGS from peer")
	}
}

// peerGenAbility returns the ability the peer advertised.
func (c *conn) peerGenAbility() (http2.GenAbility, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.peerSettings == nil {
		return http2.GenNone, false
	}
	v, ok := c.peerSettings[SettingGenAbility]
	return http2.GenAbility(v), ok
}

// peerSetting reads one peer setting under the lock.
func (c *conn) peerSetting(id uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerSettings[id]
}

// negotiated intersects both endpoints' abilities, as in HTTP/2.
func (c *conn) negotiated() http2.GenAbility {
	peer, _ := c.peerGenAbility()
	return c.cfg.GenAbility.Intersect(peer)
}

// A Request is a decoded HTTP/3 request.
type Request struct {
	Method    string
	Scheme    string
	Authority string
	Path      string
	Header    []Field
	Body      []byte

	// PeerGen is the negotiated generative ability, as in HTTP/2.
	PeerGen http2.GenAbility
}

// HeaderValue returns the first value of a regular header.
func (r *Request) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// A Response is a decoded HTTP/3 response.
type Response struct {
	Status int
	Header []Field
	Body   []byte
}

// HeaderValue returns the first value of a header.
func (r *Response) HeaderValue(name string) string {
	for _, f := range r.Header {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// readMessage reads a HEADERS frame and any DATA frames until the
// stream's FIN.
func readMessage(st *quic.Stream) (fields []Field, body []byte, err error) {
	ftype, payload, err := readFrame(st)
	if err != nil {
		return nil, nil, err
	}
	if ftype != FrameHeaders {
		return nil, nil, fmt.Errorf("http3: first frame type %#x, want HEADERS", ftype)
	}
	fields, err = DecodeFieldSection(payload)
	if err != nil {
		return nil, nil, err
	}
	for {
		ftype, payload, err := readFrame(st)
		if err == io.EOF {
			return fields, body, nil
		}
		if err != nil {
			return nil, nil, err
		}
		switch ftype {
		case FrameData:
			body = append(body, payload...)
			if len(body) > maxMessageBody {
				return nil, nil, fmt.Errorf("http3: message body exceeds %d bytes", maxMessageBody)
			}
		default:
			// Unknown frame types are ignored (§9 extensibility).
		}
	}
}

// maxMessageBody caps one request/response body: an anti-exhaustion
// bound well above any SWW page or asset.
const maxMessageBody = 64 << 20

// writeMessage emits HEADERS (+DATA) and closes the send side. The
// field section is encoded into pooled scratch; writeFrame is done
// with the bytes when it returns.
func writeMessage(st *quic.Stream, fields []Field, body []byte) error {
	sc := getEncodeScratch()
	sc.b = AppendFieldSection(sc.b, fields)
	err := writeFrame(st, FrameHeaders, sc.b)
	putEncodeScratch(sc)
	if err != nil {
		return err
	}
	if len(body) > 0 {
		if err := writeFrame(st, FrameData, body); err != nil {
			return err
		}
	}
	return st.Close()
}

// A Handler serves HTTP/3 requests.
type Handler interface {
	ServeSWW3(w *ResponseWriter, r *Request)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(w *ResponseWriter, r *Request)

// ServeSWW3 calls f.
func (f HandlerFunc) ServeSWW3(w *ResponseWriter, r *Request) { f(w, r) }

// A ResponseWriter accumulates one response; it is flushed when the
// handler returns.
type ResponseWriter struct {
	status int
	header []Field
	body   []byte
}

// WriteHeaders sets the response status and headers. The fields are
// copied, so callers may reuse their slice as soon as this returns.
func (w *ResponseWriter) WriteHeaders(status int, fields ...Field) {
	w.status = status
	w.header = append(w.header[:0], fields...)
}

// Write appends body bytes.
func (w *ResponseWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// WriteRetained sets the response body to p by reference when no
// body bytes have been written yet, avoiding the copy for immutable
// cached replies. The slice is re-capped so a subsequent Write cannot
// grow into p's backing array; if body bytes already exist, it falls
// back to copying.
func (w *ResponseWriter) WriteRetained(p []byte) (int, error) {
	if w.body == nil {
		w.body = p[:len(p):len(p)]
		return len(p), nil
	}
	return w.Write(p)
}

// A Server serves HTTP/3 sessions.
type Server struct {
	Handler Handler
	Config  Config
}

// ServeConn serves one underlying reliable connection, blocking until
// the session ends.
func (s *Server) ServeConn(nc net.Conn) error {
	sess := quic.NewSession(nc, false)
	defer sess.Close()
	c := newConn(sess, s.Config)
	if err := c.startControl(); err != nil {
		return err
	}
	for {
		st, err := sess.AcceptStream()
		if err != nil {
			return err
		}
		go s.serveStream(c, st)
	}
}

// StartConn serves nc in the background and returns a handle for
// negotiation inspection.
func (s *Server) StartConn(nc net.Conn) *ServerConn {
	sc := &ServerConn{}
	sess := quic.NewSession(nc, false)
	c := newConn(sess, s.Config)
	sc.c = c
	go func() {
		if err := c.startControl(); err != nil {
			sess.Close()
			return
		}
		for {
			st, err := sess.AcceptStream()
			if err != nil {
				return
			}
			go s.serveStream(c, st)
		}
	}()
	return sc
}

// A ServerConn is one served session.
type ServerConn struct{ c *conn }

// Negotiated returns the shared generative ability.
func (sc *ServerConn) Negotiated() http2.GenAbility { return sc.c.negotiated() }

// WaitClientSettings blocks until the client's SETTINGS arrived.
func (sc *ServerConn) WaitClientSettings() error { return sc.c.waitPeerSettings() }

// Close tears the session down.
func (sc *ServerConn) Close() error { return sc.c.sess.Close() }

func (s *Server) serveStream(c *conn, st *quic.Stream) {
	fields, body, err := readMessage(st)
	if err != nil {
		st.Reset(1)
		return
	}
	// Unlike HTTP/2, the SETTINGS frame travels on its own control
	// stream and may be delivered after the first request stream.
	// Capability-dependent serving must wait for it (requests from
	// peers that never send SETTINGS fail the handshake timeout and
	// are served with GenNone).
	c.waitPeerSettings()
	req := &Request{Body: body, PeerGen: c.negotiated()}
	for _, f := range fields {
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
			req.Header = append(req.Header, f)
		}
	}
	w := &ResponseWriter{status: 200}
	s.Handler.ServeSWW3(w, req)
	var store [8]Field // on the stack; a longer list spills to the heap
	all := append(store[:0], Field{Name: ":status", Value: strconv.Itoa(w.status)})
	writeMessage(st, append(all, w.header...), w.body)
}

// A ClientConn is the client end of an HTTP/3 session.
type ClientConn struct {
	c *conn
}

// NewClientConn performs session setup over nc: both control streams
// plus the SETTINGS exchange, waiting for the server's ability so
// Negotiated is immediately meaningful.
func NewClientConn(nc net.Conn, cfg Config) (*ClientConn, error) {
	sess := quic.NewSession(nc, true)
	c := newConn(sess, cfg)
	if err := c.startControl(); err != nil {
		sess.Close()
		return nil, err
	}
	if err := c.waitPeerSettings(); err != nil {
		sess.Close()
		return nil, err
	}
	return &ClientConn{c: c}, nil
}

// Negotiated returns the shared generative ability.
func (cc *ClientConn) Negotiated() http2.GenAbility { return cc.c.negotiated() }

// ServerGenAbility returns the raw advertised ability.
func (cc *ClientConn) ServerGenAbility() (http2.GenAbility, bool) { return cc.c.peerGenAbility() }

// ServerModelIDs returns the server's advertised model identifiers
// (§7 model negotiation), zero when absent.
func (cc *ClientConn) ServerModelIDs() (image, text uint32) {
	return uint32(cc.c.peerSetting(SettingGenImageModel)),
		uint32(cc.c.peerSetting(SettingGenTextModel))
}

// Close tears the session down.
func (cc *ClientConn) Close() error { return cc.c.sess.Close() }

// ErrCodeRequestCanceled is the QUIC application error code used
// when a request's context fires (mirrors H3_REQUEST_CANCELLED).
const ErrCodeRequestCanceled = 0x10c

// Get issues a GET request.
func (cc *ClientConn) Get(path string, extra ...Field) (*Response, error) {
	return cc.Do("GET", path, extra, nil)
}

// GetContext is Get under a context: cancellation or deadline expiry
// resets the request stream, unwinding any blocked read or write.
func (cc *ClientConn) GetContext(ctx context.Context, path string, extra ...Field) (*Response, error) {
	return cc.DoContext(ctx, "GET", path, extra, nil)
}

// Do issues a request and waits for the full response.
func (cc *ClientConn) Do(method, path string, extra []Field, body []byte) (*Response, error) {
	return cc.DoContext(context.Background(), method, path, extra, body)
}

// DoContext is Do governed by ctx for the whole request/response
// exchange: when ctx fires, the stream is reset locally (failing the
// blocked read) and toward the peer with ErrCodeRequestCanceled.
func (cc *ClientConn) DoContext(ctx context.Context, method, path string, extra []Field, body []byte) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := cc.c.sess.OpenStream()
	if err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { st.Reset(ErrCodeRequestCanceled) })
		defer stop()
	}
	resp, err := cc.do(st, method, path, extra, body)
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return resp, err
}

// do runs one exchange on an already-open stream.
func (cc *ClientConn) do(st *quic.Stream, method, path string, extra []Field, body []byte) (*Response, error) {
	fields := []Field{
		{Name: ":method", Value: method},
		{Name: ":scheme", Value: "https"},
		{Name: ":path", Value: path},
		{Name: ":authority", Value: "sww.local"},
	}
	fields = append(fields, extra...)
	if err := writeMessage(st, fields, body); err != nil {
		return nil, err
	}
	rfields, rbody, err := readMessage(st)
	if err != nil {
		return nil, err
	}
	resp := &Response{Body: rbody}
	for _, f := range rfields {
		if f.Name == ":status" {
			fmt.Sscanf(f.Value, "%d", &resp.Status)
			continue
		}
		resp.Header = append(resp.Header, f)
	}
	if resp.Status == 0 {
		return nil, fmt.Errorf("http3: response missing :status")
	}
	return resp, nil
}
