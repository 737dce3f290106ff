package http2

import (
	"bytes"
	"context"
	"io"
	"sync"
	"sync/atomic"

	"sww/internal/hpack"
)

// A Stream is one bidirectional HTTP/2 stream. Its receive side is an
// io.Reader over incoming DATA frames; its send side goes through the
// owning connection's writeData.
//
// A Stream is one heap object: its send window, its condition variable,
// its first header block and the Request/ResponseWriter (server) or
// Response/body (client) handed to callers all live inside it. Those
// values therefore alias the stream and stay valid exactly as long as
// they are reachable; a stream is never pooled or reused.
type Stream struct {
	c  *conn
	id uint32

	send sendFlow // peer-granted send window

	// wroteData records that at least one DATA frame left on this
	// stream. The abuse ledger uses it to tell a rapid reset (peer
	// cancels before any response bytes) from a legitimate mid-response
	// cancellation.
	wroteData atomic.Bool

	mu        sync.Mutex
	cond      sync.Cond // L is &mu
	buf       bytes.Buffer
	recv      recvFlow
	recvEnded bool // peer sent END_STREAM
	sendEnded bool // we sent END_STREAM
	err       error

	// ctx is canceled when the stream dies for any reason — peer
	// RST_STREAM, connection teardown, local close — so handler work
	// (queue waits, generation holds) stops the moment the requester
	// is gone instead of running to completion for nobody. This is
	// the work-cancellation half of the rapid-reset defense: the
	// abuse ledger limits how often a peer may reset, the context
	// makes each reset cheap. It is built by the first Context call
	// (client streams never ask); ctxDead records a death that came
	// before it. All three are guarded by mu.
	ctx       context.Context
	cancelCtx context.CancelFunc
	ctxDead   bool

	// hdr is the peer's first header block (the request on the server,
	// the response on the client), copied out of the read loop's
	// scratch into hdrStore, or to the heap beyond eight fields.
	// hdrReady is set with it and signalled on cond; a stream that
	// died first (err set) never becomes ready. Later blocks are
	// trailers.
	hdr      []hpack.HeaderField
	hdrReady bool
	hdrStore [8]hpack.HeaderField
	trailers []hpack.HeaderField

	// What the stream's user holds: req and rw on an accepted stream,
	// resp and body on an opened one.
	req  Request
	rw   ResponseWriter
	resp Response
	body responseBody
}

// newStream is called with c.mu held; peerWindow is the peer's
// current SETTINGS_INITIAL_WINDOW_SIZE.
func newStream(c *conn, id uint32, peerWindow int32) *Stream {
	st := &Stream{
		c:    c,
		id:   id,
		recv: newRecvFlow(c.cfg.initialWindow()),
	}
	st.send.init(peerWindow)
	st.cond.L = &st.mu
	return st
}

// Context is canceled when the stream is reset or closed. Handlers
// pass it down so abandoned requests stop consuming capacity. Asked of
// a stream that is already dead, it returns a canceled context.
func (s *Stream) Context() context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		s.ctx, s.cancelCtx = context.WithCancel(context.Background())
		if s.ctxDead {
			s.cancelCtx()
		}
	}
	return s.ctx
}

// endContext cancels the stream's context: now if one was handed out,
// at birth otherwise.
func (s *Stream) endContext() {
	s.mu.Lock()
	s.ctxDead = true
	cancel := s.cancelCtx
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// ID returns the stream identifier.
func (s *Stream) ID() uint32 { return s.id }

// onData is called from the read loop with an unpadded payload.
// flowLen is the full frame length for flow accounting.
func (s *Stream) onData(data []byte, flowLen int32, endStream bool) error {
	s.mu.Lock()
	if s.recvEnded {
		s.mu.Unlock()
		return streamError(s.id, ErrCodeStreamClosed, "DATA after END_STREAM")
	}
	if !s.recv.onData(flowLen) {
		s.mu.Unlock()
		return streamError(s.id, ErrCodeFlowControl, "stream flow window exceeded")
	}
	s.buf.Write(data)
	if endStream {
		s.recvEnded = true
	}
	// Padding never reaches the application, so refund it directly.
	if pad := flowLen - int32(len(data)); pad > 0 {
		s.creditLocked(pad)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// setHeadersLocked takes the stream's first header block out of the
// read loop's scratch list. Called with s.mu held, or before the stream
// is shared.
func (s *Stream) setHeadersLocked(fields []hpack.HeaderField) {
	s.hdr = append(s.hdrStore[:0], fields...)
	s.hdrReady = true
}

// onHeaders delivers a header block that arrived on an existing
// stream: a response (first block) or trailers (subsequent block).
// fields belongs to the caller and is copied.
func (s *Stream) onHeaders(fields []hpack.HeaderField, endStream bool) error {
	s.mu.Lock()
	switch {
	case s.hdrReady:
		s.trailers = append(s.trailers, fields...)
	case s.err == nil:
		s.setHeadersLocked(fields)
	}
	if endStream {
		s.recvEnded = true
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// awaitHeaders blocks until the peer's first header block arrives or
// the stream dies, and reports whichever happened first.
func (s *Stream) awaitHeaders() ([]hpack.HeaderField, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.hdrReady && s.err == nil {
		s.cond.Wait()
	}
	if !s.hdrReady {
		return nil, s.err
	}
	return s.hdr, nil
}

// Read implements io.Reader over the stream's DATA payload.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	for s.buf.Len() == 0 {
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return 0, err
		}
		if s.recvEnded {
			s.mu.Unlock()
			return 0, io.EOF
		}
		s.cond.Wait()
	}
	n, _ := s.buf.Read(p)
	s.creditLocked(int32(n))
	s.mu.Unlock()
	return n, nil
}

// creditLocked returns consumed bytes to the peer via WINDOW_UPDATE
// when the batching threshold is reached. Called with s.mu held.
func (s *Stream) creditLocked(n int32) {
	incr := s.recv.onConsume(n)
	ended := s.recvEnded
	if incr > 0 && !ended {
		s.c.wmu.Lock()
		s.c.fr.WriteWindowUpdate(s.id, uint32(incr))
		s.c.wmu.Unlock()
	}
	s.c.recvMu.Lock()
	cincr := s.c.connRecv.onConsume(n)
	s.c.recvMu.Unlock()
	if cincr > 0 {
		s.c.wmu.Lock()
		s.c.fr.WriteWindowUpdate(0, uint32(cincr))
		s.c.wmu.Unlock()
	}
}

// Write sends data on the stream.
func (s *Stream) Write(p []byte) (int, error) {
	return s.write(p, false)
}

// WriteRetained sends data on the stream without copying it into
// frame buffers: the transport writes p's bytes in place. The caller
// must not mutate or reuse p afterward — it is meant for immutable
// cached bytes (a registry page, a CDN shard entry) that outlive the
// write.
func (s *Stream) WriteRetained(p []byte) (int, error) {
	return s.write(p, true)
}

func (s *Stream) write(p []byte, retained bool) (int, error) {
	s.mu.Lock()
	if s.sendEnded {
		s.mu.Unlock()
		return 0, streamError(s.id, ErrCodeStreamClosed, "write after close")
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, err
	}
	s.mu.Unlock()
	if err := s.c.writeData(s, p, false, retained); err != nil {
		return 0, err
	}
	return len(p), nil
}

// CloseSend half-closes the stream in the send direction by emitting
// an empty DATA frame with END_STREAM.
func (s *Stream) CloseSend() error {
	s.mu.Lock()
	if s.sendEnded {
		s.mu.Unlock()
		return nil
	}
	s.sendEnded = true
	s.mu.Unlock()
	return s.c.writeData(s, nil, true, false)
}

// Close cancels the stream with RST_STREAM(CANCEL) unless it already
// finished cleanly in both directions.
func (s *Stream) Close() error {
	s.mu.Lock()
	done := s.recvEnded && s.sendEnded && s.buf.Len() == 0
	s.mu.Unlock()
	if !done {
		s.c.resetStream(s.id, ErrCodeCancel)
		s.closeWithError(streamError(s.id, ErrCodeCancel, "closed locally"))
	}
	s.endContext()
	s.c.removeStream(s.id)
	return nil
}

// cancel aborts the stream with RST_STREAM(CANCEL), failing local
// readers and writers with err (context cancellation, typically)
// rather than the generic closed-locally error.
func (s *Stream) cancel(err error) {
	s.c.resetStream(s.id, ErrCodeCancel)
	s.closeWithError(err)
	s.c.removeStream(s.id)
}

// Trailers returns any trailer fields received after the response
// headers. Valid once Read has returned io.EOF.
func (s *Stream) Trailers() []hpack.HeaderField {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]hpack.HeaderField(nil), s.trailers...)
}

// closeWithError fails pending readers, writers and the header wait.
func (s *Stream) closeWithError(err error) {
	s.endContext()
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.send.fail(err)
}
