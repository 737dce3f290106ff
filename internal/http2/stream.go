package http2

import (
	"context"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sww/internal/hpack"
)

// A Stream is one bidirectional HTTP/2 stream. Its receive side is an
// io.Reader over incoming DATA frames; its send side goes through the
// owning connection's writeData.
//
// A Stream is one heap object: its send window, its condition variable,
// its first header block and the Request/ResponseWriter (server) or
// Response/body (client) handed to callers all live inside it. Those
// values therefore alias the stream. A stream answered on the read loop
// (see InlineHandler) is reused for the connection's next request, so
// what TryServeSWW was handed is valid only until it returns; a
// response whose body ReadAllBody or ReadAllBodyContext took to its end
// is reused for the connection's next request too, so the Response is
// valid only until that call returns. Every other stream stays valid
// exactly as long as it is reachable.
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
	recv      recvFlow
	recvEnded bool // peer sent END_STREAM
	sendEnded bool // we sent END_STREAM
	err       error

	// buf holds received DATA; buf[rd:] is what no reader has taken.
	// Every DATA byte goes back to the connection's receive window
	// exactly once: when Read consumes it, on arrival once the body is
	// lent to takeBody, when abandon drops it unread, or straight from
	// onData when it arrives for nobody (DESIGN.md "Receiving").
	buf       []byte
	rd        int
	lent      bool // takeBody is collecting the body: DATA is credited as it arrives
	abandoned bool // nobody will read: DATA is refunded as it arrives

	// owed is how many DATA bytes the first header block's
	// content-length still announces, -1 when it announced none.
	owed int64

	// ctx is canceled when the stream dies for any reason — peer
	// RST_STREAM, connection teardown, local close — so handler work
	// (queue waits, generation holds) stops the moment the requester
	// is gone instead of running to completion for nobody. This is
	// the work-cancellation half of the rapid-reset defense: the
	// abuse ledger limits how often a peer may reset, the context
	// makes each reset cheap. It lives in the stream, so handing it
	// out allocates nothing.
	ctx streamContext

	// hookDone is the Done channel of the context DoContext hooked the
	// stream on, nil when it hooked none: the connection's hook for
	// that context cancels the stream while it is in c.streams (its
	// callback sets the field back to nil and canceled), so
	// ReadAllBodyContext under the same context adds no hook of its
	// own, and a stream the hook is cancelling is not reused. Guarded
	// by c.mu.
	hookDone <-chan struct{}
	canceled bool

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

// init readies st as stream id of c, resetting whatever a previous
// request left in it. It is called with c.mu held, on a stream nobody
// else can reach; peerWindow is the peer's current
// SETTINGS_INITIAL_WINDOW_SIZE.
func (st *Stream) init(c *conn, id uint32, peerWindow int32) {
	*st = Stream{} // in place: a literal with fields is built on the stack and copied
	st.c, st.id = c, id
	st.recv = newRecvFlow(c.cfg.initialWindow())
	st.owed = -1
	st.send.init(peerWindow)
	st.cond.L = &st.mu
}

// Context is canceled when the stream is reset or closed. Handlers
// pass it down so abandoned requests stop consuming capacity. Asked of
// a stream that is already dead, it returns a canceled context.
//
// The context is the stream's own memory, so a stream whose context was
// handed out is never reused for another request: serveInline leaves
// such a stream to the garbage collector, and a stream served on a
// handler goroutine is never reused at all.
func (s *Stream) Context() context.Context {
	s.ctx.mu.Lock()
	s.ctx.handed = true
	s.ctx.mu.Unlock()
	return &s.ctx
}

// A streamContext is a Stream's context: canceled when the stream dies,
// with no deadline and no values. Done makes its channel on first ask,
// and AfterFunc lets a context derived from it (context.WithTimeout in
// the overload guard's queue) register a callback instead of starting
// a goroutine that waits on Done.
type streamContext struct {
	mu     sync.Mutex
	done   chan struct{} // made by the first Done, closed by end
	err    error         // context.Canceled once ended
	funcs  []*func()     // AfterFunc callbacks not yet stopped
	handed bool          // Stream.Context returned it: the stream is not reused
}

func (*streamContext) Deadline() (time.Time, bool) { return time.Time{}, false }

func (*streamContext) Value(any) any { return nil }

func (c *streamContext) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		}
	}
	return c.done
}

func (c *streamContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// AfterFunc arranges for f to run in its own goroutine once the context
// ends, at once if it has, as context.AfterFunc does; stop unregisters
// f and reports whether that kept it from running.
// context.WithCancel and WithTimeout use this method, when their parent
// has it, to learn of the parent's end.
func (c *streamContext) AfterFunc(f func()) (stop func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		go f()
		return func() bool { return false }
	}
	fp := &f
	c.funcs = append(c.funcs, fp)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, g := range c.funcs {
			if g == fp {
				c.funcs = slices.Delete(c.funcs, i, i+1)
				return true
			}
		}
		return false
	}
}

// handedOut reports whether Stream.Context returned the context.
func (c *streamContext) handedOut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handed
}

// end cancels the context; later calls do nothing.
func (c *streamContext) end() {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = context.Canceled
	if c.done != nil {
		close(c.done)
	}
	funcs := c.funcs
	c.funcs = nil
	c.mu.Unlock()
	for _, f := range funcs {
		go (*f)()
	}
}

// ID returns the stream identifier.
func (s *Stream) ID() uint32 { return s.id }

// onData is called from the read loop with an unpadded payload.
// flowLen is the full frame length for flow accounting; the connection
// window has already been charged with it.
func (s *Stream) onData(data []byte, flowLen int32, endStream bool) error {
	s.mu.Lock()
	var err error
	switch n := int64(len(data)); {
	case s.recvEnded:
		err = streamError(s.id, ErrCodeStreamClosed, "DATA after END_STREAM")
	case !s.recv.onData(flowLen):
		err = streamError(s.id, ErrCodeFlowControl, "stream flow window exceeded")
	case s.owed >= 0 && (n > s.owed || endStream && n < s.owed):
		// RFC 9113 §8.1.1: a body that disagrees with its
		// content-length is malformed, not a shorter or longer page.
		err = streamError(s.id, ErrCodeProtocol, "DATA of %d bytes (END_STREAM=%t) with %d left of content-length", n, endStream, s.owed)
	case s.owed >= 0:
		s.owed -= n
	}
	if err != nil || s.err != nil || s.abandoned {
		// Rejected, or dead on arrival: it is buffered for nobody.
		s.mu.Unlock()
		s.c.returnConnWindow(flowLen)
		return err
	}
	if len(s.buf)+len(data) > cap(s.buf) {
		s.growLocked(len(data))
	}
	s.buf = append(s.buf, data...)
	if endStream {
		s.recvEnded = true
	}
	// Padding never reaches the application, so refund it directly; a
	// lent body has no reader to wait for either.
	credit := flowLen - int32(len(data))
	if s.lent {
		credit = flowLen
	}
	if credit > 0 {
		s.creditLocked(credit)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// maxBodyPresize bounds how much a body's buffer is sized on the word
// of a content-length header alone.
const maxBodyPresize = 1 << 20

// growLocked makes room for n more bytes of DATA, leaving behind what
// Read has taken. A response keeps its word or fails in onData, so its
// content-length sizes the buffer and a body costs one: all that is
// still owed once the body is lent, but no more than a receive window
// while a streaming reader may yet drain it piece by piece.
func (s *Stream) growLocked(n int) {
	unread := s.buf[s.rd:]
	if s.owed >= 0 && !s.c.server {
		limit := int64(maxBodyPresize)
		if !s.lent {
			limit = min(limit, int64(s.recv.target))
		}
		need := int64(len(unread) + n)
		if size := min(need+s.owed, limit); size >= need && size > int64(cap(s.buf)) {
			s.buf = append(make([]byte, 0, size), unread...)
			s.rd = 0
			return
		}
	}
	s.buf = s.buf[:copy(s.buf, unread)]
	s.rd = 0
}

// setHeadersLocked takes the stream's first header block out of the
// read loop's scratch list. Called with s.mu held, or before the stream
// is shared.
func (s *Stream) setHeadersLocked(fields []hpack.HeaderField) {
	s.hdr = append(s.hdrStore[:0], fields...)
	s.hdrReady = true
	for _, f := range fields {
		if f.Name == "content-length" {
			if n, err := strconv.ParseInt(f.Value, 10, 64); err == nil && n >= 0 {
				s.owed = n
			}
			break
		}
	}
}

// onHeaders delivers a header block that arrived on an existing
// stream: a response (first block) or trailers (subsequent block).
// fields belongs to the caller and is copied.
func (s *Stream) onHeaders(fields []hpack.HeaderField, endStream bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.hdrReady:
		if endStream && s.owed > 0 {
			return streamError(s.id, ErrCodeProtocol, "body ended %d bytes short of its content-length", s.owed)
		}
		s.trailers = append(s.trailers, fields...)
	case s.err == nil:
		// A first block that also ends the stream is not held to its
		// content-length: the answer to a HEAD request announces a body
		// it does not carry, and the stream does not know the method.
		s.setHeadersLocked(fields)
	}
	if endStream {
		s.recvEnded = true
	}
	s.cond.Broadcast()
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
	defer s.mu.Unlock()
	for s.rd == len(s.buf) {
		if s.err != nil {
			return 0, s.err
		}
		if s.recvEnded {
			return 0, io.EOF
		}
		s.cond.Wait()
	}
	n := copy(p, s.buf[s.rd:])
	s.rd += n
	if s.rd == len(s.buf) {
		s.buf, s.rd = s.buf[:0], 0
	}
	s.creditLocked(int32(n))
	return n, nil
}

// takeBody waits for the rest of the body — END_STREAM or the stream's
// death — and returns the receive buffer itself, from the read offset
// on, instead of copying it out; the stream keeps no reference. While
// it waits the body is lent: DATA is credited to both windows as it
// arrives, so a body larger than the window keeps flowing. The error is
// the one Read would report after the last byte.
func (s *Stream) takeBody() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if unread := len(s.buf) - s.rd; unread > 0 && !s.lent {
		s.creditLocked(int32(unread))
	}
	s.lent = true
	for !s.recvEnded && s.err == nil {
		s.cond.Wait()
	}
	body := s.buf[s.rd:]
	s.buf, s.rd = nil, 0
	return body, s.err
}

// abandon gives up on the receive side: nobody will read what is
// buffered or still to come, so it goes back to the connection's
// receive window, which the peer shares among all its streams.
func (s *Stream) abandon() {
	s.mu.Lock()
	unread := 0
	if !s.lent { // a lent body was credited on arrival and is takeBody's to take
		unread = len(s.buf) - s.rd
		s.buf, s.rd = nil, 0
	}
	s.abandoned = true
	s.mu.Unlock()
	if unread > 0 {
		s.c.returnConnWindow(int32(unread))
	}
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

// Write sends data on the stream. p is the caller's again when it
// returns.
func (s *Stream) Write(p []byte) (int, error) {
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
	if err := s.c.writeData(s, p, false); err != nil {
		return 0, err
	}
	return len(p), nil
}

// sendErr reports why the stream can send no more, if it has died.
func (s *Stream) sendErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// CloseSend half-closes the stream in the send direction by emitting
// an empty DATA frame with END_STREAM. A stream that has died sends
// nothing more (RFC 9113 §5.1) and reports why.
func (s *Stream) CloseSend() error { return s.closeSend(nil) }

// closeSend writes p and half-closes the stream, END_STREAM on the DATA
// frame that carries p's last byte: an empty frame only when p is.
func (s *Stream) closeSend(p []byte) error {
	s.mu.Lock()
	if s.sendEnded {
		s.mu.Unlock()
		if len(p) > 0 {
			return streamError(s.id, ErrCodeStreamClosed, "write after close")
		}
		return nil
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	s.sendEnded = true
	s.mu.Unlock()
	return s.c.writeData(s, p, true)
}

// Close cancels the stream with RST_STREAM(CANCEL) unless it already
// finished cleanly in both directions or is dead already.
func (s *Stream) Close() error {
	s.mu.Lock()
	done := s.recvEnded && s.sendEnded && s.rd == len(s.buf)
	s.mu.Unlock()
	if !done {
		s.reset(streamError(s.id, ErrCodeCancel, "closed locally"))
	}
	s.ctx.end()
	s.c.removeStream(s.id)
	s.abandon()
	return nil
}

// cancel aborts the stream with RST_STREAM(CANCEL), failing local
// readers and writers with err (context cancellation, typically)
// rather than the generic closed-locally error.
func (s *Stream) cancel(err error) {
	s.reset(err)
	s.c.removeStream(s.id)
	s.abandon()
}

// reset kills the stream with err. Only the first death of a stream
// sends RST_STREAM(CANCEL): a stream reset by either side, or torn
// down with its connection, is closed on both ends already, and a
// reset may not answer the peer's (RFC 9113 §5.4.2). The frame is
// queued under s.mu with err, so whoever sees the stream dead sees it
// after the reset, and no stream opened into its slot goes out first.
func (s *Stream) reset(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		s.c.resetStream(s.id, ErrCodeCancel)
	}
	s.mu.Unlock()
	s.closeWithError(err)
}

// Trailers returns any trailer fields received after the response
// headers. Valid once Read has returned io.EOF; a body ReadAllBody
// took ends its exchange, and the trailers go with the stream.
func (s *Stream) Trailers() []hpack.HeaderField {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]hpack.HeaderField(nil), s.trailers...)
}

// closeWithError fails pending readers, writers and the header wait,
// then cancels the context: a handler woken by the cancellation finds
// the stream already dead and finishes it without a frame.
func (s *Stream) closeWithError(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.send.fail(err)
	s.ctx.end()
}
