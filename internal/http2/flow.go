package http2

import "sync"

// sendFlow is a flow-control send window shared between the writer
// goroutines of a connection or stream (RFC 9113 §5.2). take blocks
// until window is available; add releases window when WINDOW_UPDATE
// arrives or when SETTINGS_INITIAL_WINDOW_SIZE changes.
type sendFlow struct {
	mu     sync.Mutex
	cond   sync.Cond // L is &mu; set by init
	window int64     // may go negative after a SETTINGS decrease
	err    error     // set when the connection dies; wakes all waiters
}

// init readies a zero sendFlow in place, so a Stream can embed its
// window instead of pointing at one. A sendFlow must not be copied
// afterwards.
func (f *sendFlow) init(initial int32) {
	f.window = int64(initial)
	f.cond.L = &f.mu
}

func newSendFlow(initial int32) *sendFlow {
	f := new(sendFlow)
	f.init(initial)
	return f
}

// take blocks until at least one byte of window is available, then
// claims up to n bytes and returns the claimed amount.
func (f *sendFlow) take(n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.window <= 0 && f.err == nil {
		f.cond.Wait()
	}
	if f.err != nil {
		return 0, f.err
	}
	got := int64(n)
	if got > f.window {
		got = f.window
	}
	f.window -= got
	return int(got), nil
}

// tryTake claims exactly n bytes of window, or nothing: it never waits
// and never claims a part. A dead window declines like an empty one;
// the caller that can wait learns the error from take.
func (f *sendFlow) tryTake(n int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil || f.window < int64(n) {
		return false
	}
	f.window -= int64(n)
	return true
}

// add returns window. It reports false if the window would exceed
// 2^31-1, which is a flow-control protocol violation (RFC 9113
// §6.9.1). The check happens before the mutation: a rejected stream
// increment triggers RST_STREAM, after which the connection — and
// this window, if the error is re-examined or the teardown races a
// writer — lives on, so the window must stay at its last valid value
// rather than a corrupted >2^31-1 one.
func (f *sendFlow) add(n int32) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.window+int64(n) > 1<<31-1 {
		return false
	}
	f.window += int64(n)
	if f.window > 0 {
		f.cond.Broadcast()
	}
	return true
}

// wouldOverflow reports whether add(n) would violate the 2^31-1
// bound, without applying it. The abuse ledger's drop path uses it:
// an over-budget WINDOW_UPDATE is not applied, but an overflowing
// increment is still a protocol violation that must kill the stream
// or connection rather than be masked by the drop.
func (f *sendFlow) wouldOverflow(n int32) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.window+int64(n) > 1<<31-1
}

// available returns the current window, for diagnostics and tests.
func (f *sendFlow) available() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.window
}

// fail wakes all waiters with err.
func (f *sendFlow) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
	f.cond.Broadcast()
}

// recvFlow tracks the receive side of flow control: how much window
// we have granted the peer and how much data we have consumed. It
// decides when to emit WINDOW_UPDATE frames. All methods must be
// called with external synchronization (the connection read loop or
// the stream's buffer lock).
type recvFlow struct {
	// granted is the window the peer currently believes it has.
	granted int32
	// unacked is how many consumed bytes have not yet been returned
	// via WINDOW_UPDATE.
	unacked int32
	// target is the window size we try to maintain.
	target int32
}

func newRecvFlow(target int32) recvFlow {
	return recvFlow{granted: target, target: target}
}

// onData accounts for length bytes of received payload. It reports
// false when the peer overflowed the window it was granted.
func (f *recvFlow) onData(length int32) bool {
	if length > f.granted {
		return false
	}
	f.granted -= length
	return true
}

// onConsume records that the application consumed n bytes and returns
// the WINDOW_UPDATE increment to send now, or 0 to batch further.
// Updates are sent once half the target window has been consumed,
// which bounds both stall time and frame overhead.
func (f *recvFlow) onConsume(n int32) int32 {
	f.unacked += n
	if f.unacked < f.target/2 {
		return 0
	}
	incr := f.unacked
	f.unacked = 0
	f.granted += incr
	return incr
}
