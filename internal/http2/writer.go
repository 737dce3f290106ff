package http2

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// A wireSlab is a pooled frame-sized write buffer. The pool stores
// stable *wireSlab pointers so recycling a buffer never allocates (a
// bare []byte in a sync.Pool re-boxes its slice header on every Put).
// Slabs are acquired by frame writers (one per copied frame, or one
// per 9-octet header on the retained path), handed to the asyncWriter
// run loop inside a wireEntry, and returned to the pool only after
// the transport write completes — the run loop is the sole owner of a
// slab once it is enqueued.
type wireSlab struct{ b []byte }

var wireSlabPool = sync.Pool{
	New: func() any {
		return &wireSlab{b: make([]byte, 0, frameHeaderLen+minMaxFrameSize)}
	},
}

// maxPooledBufCap keeps jumbo buffers (a peer may raise
// SETTINGS_MAX_FRAME_SIZE to 16 MiB) from being pinned by the pool.
const maxPooledBufCap = 1 << 18

func getWireSlab() *wireSlab {
	s := wireSlabPool.Get().(*wireSlab)
	s.b = s.b[:0]
	return s
}

func putWireSlab(s *wireSlab) {
	if cap(s.b) > maxPooledBufCap {
		return
	}
	wireSlabPool.Put(s)
}

// A wireEntry is one queued chunk of wire bytes. Entries with a slab
// are writer-owned and recycled after the transport write; slab-less
// entries are caller-retained immutable bytes (cached reply bodies)
// that are written in place and never copied.
type wireEntry struct {
	b    []byte
	slab *wireSlab
}

// smallWriteLimit is the size up to which adjacent queue entries are
// flattened into one coalesce buffer before hitting the transport.
// Frame headers, HEADERS blocks, SETTINGS, and WINDOW_UPDATEs all
// merge; body-sized DATA payloads ride as their own writev element.
const smallWriteLimit = 4 << 10

// asyncWriter decouples frame emission from the transport: writers
// enqueue complete frames and a single background goroutine flushes
// them to the connection. This keeps the read loop responsive even
// when the peer is slow to drain (and avoids deadlock on fully
// synchronous transports such as net.Pipe, where a SETTINGS ACK write
// from each side's read loop would otherwise block both). Each
// drained batch is emitted as a single net.Buffers write — one writev
// on TCP — with small entries coalesced so a burst of control frames
// costs one buffer, not one write each.
type asyncWriter struct {
	nc io.Writer

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []wireEntry
	queued int // bytes enqueued but not yet written
	closed bool
	err    error

	// flushed is closed by the run loop on exit, after the queue has
	// drained (or the writer aborted). drain selects on it instead of
	// spawning a helper goroutine, so a wedged transport cannot leak
	// one waiter per teardown.
	flushed chan struct{}

	// Run-loop scratch, reused across batches (the run loop is a
	// single goroutine, so these need no locking).
	batch  []wireEntry
	bufs   net.Buffers
	merges []*wireSlab
}

// maxQueuedBytes bounds writer memory. DATA is flow-controlled well
// below this; only a pathological peer that stops reading entirely
// can fill it, and then enqueuers block, which is the right
// backpressure.
const maxQueuedBytes = 4 << 20

var errWriterClosed = errors.New("http2: write on closed connection")

func newAsyncWriter(nc io.Writer) *asyncWriter {
	w := &asyncWriter{nc: nc, flushed: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// enqueue appends entries to the queue as one atomic unit (a frame
// header and its retained payload must stay adjacent). It blocks only
// when the queue is saturated. Slab-backed entries are recycled here
// on failure; on success ownership passes to the run loop.
func (w *asyncWriter) enqueue(entries ...wireEntry) error {
	w.mu.Lock()
	for w.queued >= maxQueuedBytes && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil || w.closed {
		err := w.err
		w.mu.Unlock()
		for _, e := range entries {
			if e.slab != nil {
				putWireSlab(e.slab)
			}
		}
		if err == nil {
			err = errWriterClosed
		}
		return err
	}
	w.appendLocked(entries...)
	return nil
}

// tryLock and appendLocked are enqueue for a caller that must not wait
// — the read loop answering a request in place: a tryEnqueue in two
// steps. Where enqueue would sleep or fail (queue saturated, writer
// closed or failed) tryLock reports false and holds nothing. After
// true the queue is locked and the caller owes exactly one
// appendLocked, so check and append happen under one hold of mu. They
// are two calls because what runs between them cannot be taken back: a
// header block, once encoded, has changed the HPACK dynamic table and
// must reach the peer, so the check for room has to come before the
// encoding and still hold at the append. Keep what runs under the lock
// short.
func (w *asyncWriter) tryLock() bool {
	w.mu.Lock()
	if w.queued >= maxQueuedBytes || w.err != nil || w.closed {
		w.mu.Unlock()
		return false
	}
	return true
}

// appendLocked queues entries as one unit, wakes the run loop and
// releases the lock enqueue or tryLock took.
func (w *asyncWriter) appendLocked(entries ...wireEntry) {
	for _, e := range entries {
		w.queued += len(e.b)
	}
	w.queue = append(w.queue, entries...)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Write enqueues one complete frame, copying p into a pooled slab.
// Frame writers that can assemble directly into a slab
// (Framer.writeFrame) skip this copy via enqueue.
func (w *asyncWriter) Write(p []byte) (int, error) {
	s := getWireSlab()
	s.b = append(s.b, p...)
	if err := w.enqueue(wireEntry{b: s.b, slab: s}); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (w *asyncWriter) run() {
	defer close(w.flushed)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.queue) == 0) {
			w.mu.Unlock()
			return
		}
		w.batch = append(w.batch[:0], w.queue...)
		for i := range w.queue {
			w.queue[i] = wireEntry{}
		}
		w.queue = w.queue[:0]
		w.mu.Unlock()

		err := w.writeBatch(w.batch)
		released := 0
		for i := range w.batch {
			released += len(w.batch[i].b)
			if w.batch[i].slab != nil {
				putWireSlab(w.batch[i].slab)
			}
			w.batch[i] = wireEntry{}
		}

		w.mu.Lock()
		if err != nil {
			if w.err == nil {
				w.err = err
			}
			w.queue = nil
			w.queued = 0
		} else {
			w.queued -= released
		}
		w.cond.Broadcast()
		failed := w.err != nil
		w.mu.Unlock()
		if failed {
			return
		}
	}
}

// writeBatch flushes one drained batch with as few transport writes
// as possible: runs of small entries are flattened into a pooled
// coalesce slab, large entries (retained bodies, full DATA frames)
// become their own element, and the whole batch goes out as one
// net.Buffers write — a single writev when the transport is a TCP
// connection. Byte order is exactly queue order; batching is
// invisible on the wire.
func (w *asyncWriter) writeBatch(batch []wireEntry) error {
	bufs := w.bufs[:0]
	merges := w.merges[:0]
	var cur *wireSlab
	for _, e := range batch {
		if len(e.b) <= smallWriteLimit {
			if cur == nil {
				cur = getWireSlab()
			}
			cur.b = append(cur.b, e.b...)
			continue
		}
		if cur != nil {
			bufs = append(bufs, cur.b)
			merges = append(merges, cur)
			cur = nil
		}
		bufs = append(bufs, e.b)
	}
	if cur != nil {
		bufs = append(bufs, cur.b)
		merges = append(merges, cur)
	}

	var err error
	if len(bufs) == 1 {
		_, err = w.nc.Write(bufs[0])
	} else if len(bufs) > 1 {
		// nb shares bufs's backing array; WriteTo consumes nb's view
		// of it, while bufs keeps the full header for scratch reuse.
		nb := net.Buffers(bufs)
		_, err = nb.WriteTo(w.nc)
	}
	for i, m := range merges {
		putWireSlab(m)
		merges[i] = nil
	}
	for i := range bufs {
		bufs[i] = nil
	}
	w.bufs, w.merges = bufs[:0], merges[:0]
	return err
}

// close stops the writer after draining already-enqueued frames.
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
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.flushed:
	case <-t.C:
	}
}

// abort stops the writer immediately, discarding queued frames.
func (w *asyncWriter) abort(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.closed = true
	w.queue = nil
	w.queued = 0
	w.cond.Broadcast()
	w.mu.Unlock()
}
