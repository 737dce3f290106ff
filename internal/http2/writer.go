package http2

import (
	"errors"
	"io"
	"sync"
	"time"
)

// asyncWriter decouples frame emission from the transport: writers
// build complete frames at the end of buf and a single background
// goroutine writes them to the connection. This keeps the read loop
// responsive even when the peer is slow to drain (and avoids deadlock
// on fully synchronous transports such as net.Pipe, where a SETTINGS
// ACK write from each side's read loop would otherwise block both).
//
// It is a double buffer. Whoever holds mu (lock, tryLock) may append to
// buf and nothing else; the run loop swaps buf for the spare it wrote
// last and writes everything taken with one transport Write, so a burst
// of frames — a whole reply — is one write, whatever the transport.
// Wire order is append order.
type asyncWriter struct {
	nc io.Writer

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte // frames not yet taken by the run loop
	spare   []byte // the buffer written last, buf after the next swap
	writing int    // bytes the run loop has taken and not yet written
	closed  bool
	err     error

	// flushed is closed by the run loop on exit, after buf has drained
	// (or the transport failed). drain selects on it instead of spawning a
	// helper goroutine, so a wedged transport cannot leak one waiter per
	// teardown.
	flushed chan struct{}
}

const (
	// maxQueuedData bounds the memory one connection's writer holds for
	// a peer that is slow to read. DATA waits for the queue to fall
	// below it (waitRoom), tryLock declines at it, and a written buffer
	// that grew past twice it is dropped, not kept as the spare.
	maxQueuedData = 1 << 18

	// maxQueuedBytes bounds every other frame. Control frames are small
	// and most are owed to the peer's own frames; only a peer that
	// floods them and reads nothing can fill it, and then their writers
	// block, which is the right backpressure.
	maxQueuedBytes = 4 << 20
)

var errWriterClosed = errors.New("http2: write on closed connection")

func newAsyncWriter(nc io.Writer) *asyncWriter {
	w := &asyncWriter{nc: nc, flushed: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// waitLocked sleeps until fewer than limit bytes are queued and reports
// why nothing more can be queued, if the writer closed or failed.
func (w *asyncWriter) waitLocked(limit int) error {
	for len(w.buf)+w.writing >= limit && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errWriterClosed
	}
	return nil
}

// lock returns with buf the caller's to append whole frames to, until
// unlock. It blocks only when maxQueuedBytes are queued; on error it
// holds nothing.
func (w *asyncWriter) lock() error {
	w.mu.Lock()
	err := w.waitLocked(maxQueuedBytes)
	if err != nil {
		w.mu.Unlock()
	}
	return err
}

// tryLock is lock for a caller that must not wait — the read loop
// answering a request in place. Where a DATA writer would sleep or fail
// (maxQueuedData queued, writer closed or failed) it reports false and
// holds nothing. The check for room and the append are under one hold
// of mu because what runs between them cannot be taken back: a header
// block, once encoded, has changed the HPACK dynamic table and must
// reach the peer.
func (w *asyncWriter) tryLock() bool {
	w.mu.Lock()
	if len(w.buf)+w.writing >= maxQueuedData || w.err != nil || w.closed {
		w.mu.Unlock()
		return false
	}
	return true
}

// unlock ends the hold lock or tryLock began and wakes the run loop.
func (w *asyncWriter) unlock() {
	w.cond.Broadcast()
	w.mu.Unlock()
}

// waitRoom is where DATA waits for a slow peer: it returns once fewer
// than maxQueuedData bytes are queued, holding nothing. Callers wait
// here before they take the connection's write lock, which the read
// loop needs for its WINDOW_UPDATEs and acks.
func (w *asyncWriter) waitRoom() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waitLocked(maxQueuedData)
}

// Write queues a copy of p, which must be whole frames.
func (w *asyncWriter) Write(p []byte) (int, error) {
	if err := w.lock(); err != nil {
		return 0, err
	}
	w.buf = append(w.buf, p...)
	w.unlock()
	return len(p), nil
}

func (w *asyncWriter) run() {
	defer close(w.flushed)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for len(w.buf) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if w.err != nil || len(w.buf) == 0 {
			return
		}
		out := w.buf
		w.buf, w.spare, w.writing = w.spare[:0], nil, len(out)
		w.mu.Unlock()
		_, err := w.nc.Write(out)
		w.mu.Lock()
		w.writing = 0
		if cap(out) <= 2*maxQueuedData {
			w.spare = out
		}
		if err != nil {
			w.err = err
		}
		w.cond.Broadcast()
	}
}

// close stops the writer after draining already-queued frames.
func (w *asyncWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// drain waits up to d for the writer goroutine to finish flushing. It
// spawns nothing: if the transport is wedged and d elapses first,
// drain simply returns, and the run loop remains the only goroutine
// still (legitimately) blocked in the transport write.
func (w *asyncWriter) drain(d time.Duration) {
	select {
	case <-w.flushed:
	case <-time.After(d):
	}
}
