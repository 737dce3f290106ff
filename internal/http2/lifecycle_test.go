package http2

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"sww/internal/hpack"
)

// TestClientSettingsPrecedeSettingsAck: a server whose SETTINGS are
// already in the client's socket when the client starts must still see
// the client's own SETTINGS first, not the ACK of its own — a server
// refuses a connection whose first frame is anything else (§3.4).
// Loopback TCP, not net.Pipe: the race needs a transport that buffers.
func TestClientSettingsPrecedeSettingsAck(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 200; i++ {
		first := make(chan Frame, 1)
		fail := make(chan error, 1)
		go func() {
			nc, err := l.Accept()
			if err != nil {
				fail <- err
				return
			}
			defer nc.Close()
			fr := NewFramer(nc, nc)
			// SETTINGS before reading a byte, so they win the race
			// whenever the client lets them.
			if err := fr.WriteSettings(); err != nil {
				fail <- err
				return
			}
			if _, err := io.ReadFull(nc, make([]byte, len(ClientPreface))); err != nil {
				fail <- err
				return
			}
			f, err := fr.ReadFrame()
			if err != nil {
				fail <- err
				return
			}
			f.Payload = nil // the framer's buffer; only the header is judged
			first <- f
			fr.WriteSettingsAck()
			for err == nil { // until the client closes
				_, err = fr.ReadFrame()
			}
		}()
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cc, err := NewClientConn(nc, Config{})
		if err != nil {
			t.Fatalf("handshake %d: %v", i, err)
		}
		select {
		case f := <-first:
			if f.Type != FrameSettings || f.Has(FlagAck) {
				t.Fatalf("handshake %d: client's first frame is %v, want SETTINGS without ACK", i, f.FrameHeader)
			}
		case err := <-fail:
			t.Fatalf("handshake %d: raw server: %v", i, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("handshake %d: no frame from the client", i)
		}
		cc.Close()
	}
}

// TestCloseRacingPeerClose: ClientConn.Close and the read loop's own
// teardown (the server's socket closing under it) may run at once;
// exactly one of them closes the done channel.
func TestCloseRacingPeerClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		cEnd, sEnd := net.Pipe()
		srv := &Server{Handler: HandlerFunc(okHandler)}
		sc := srv.StartConn(sEnd)
		cc, err := NewClientConn(cEnd, Config{DrainTimeout: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cc.Close() }()
		go func() { defer wg.Done(); sEnd.Close() }()
		wg.Wait()
		select {
		case <-cc.c.doneCh:
		case <-time.After(5 * time.Second):
			t.Fatal("client connection never finished tearing down")
		}
		sc.Close()
	}
}

// newTestStream returns a client-role stream on a connection whose
// peer discards everything, for driving the read loop's callbacks by
// hand.
func newTestStream(t *testing.T) *Stream {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go io.Copy(io.Discard, sEnd)
	c := newConn(cEnd, Config{}, false)
	t.Cleanup(func() {
		c.aw.close()
		cEnd.Close()
		sEnd.Close()
	})
	st, err := c.openStream()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var okResponse = []hpack.HeaderField{{Name: ":status", Value: "200"}, {Name: "x-sww-mode", Value: "generative"}}

// TestHeadersThenReset: the first header block wins over a later
// error — the waiter gets the response, and the reset surfaces on the
// body.
func TestHeadersThenReset(t *testing.T) {
	st := newTestStream(t)
	reset := StreamError{StreamID: st.id, Code: ErrCodeCancel, Reason: "reset by peer"}
	scratch := append([]hpack.HeaderField(nil), okResponse...)
	st.onHeaders(scratch, false)
	scratch[1].Value = "overwritten by the next block" // the read loop reuses its list
	st.closeWithError(reset)

	hdrs, err := st.awaitHeaders()
	if err != nil {
		t.Fatalf("awaitHeaders after headers-then-reset: %v, want the headers", err)
	}
	if len(hdrs) != 2 || hdrs[1] != okResponse[1] {
		t.Fatalf("headers = %v, want a stream-owned copy of %v", hdrs, okResponse)
	}
	if _, err := st.Read(make([]byte, 1)); !errors.Is(err, reset) {
		t.Fatalf("Read after reset: %v, want %v", err, reset)
	}
}

// TestResetThenHeaders: a stream that died first stays dead — a header
// block arriving afterwards does not resurrect the response.
func TestResetThenHeaders(t *testing.T) {
	st := newTestStream(t)
	reset := StreamError{StreamID: st.id, Code: ErrCodeRefusedStream, Reason: "reset by peer"}
	st.closeWithError(reset)
	st.onHeaders(okResponse, true)
	if hdrs, err := st.awaitHeaders(); !errors.Is(err, reset) {
		t.Fatalf("awaitHeaders after reset-then-headers = %v, %v; want %v", hdrs, err, reset)
	}
}

// TestResetWakesHeaderWait: closeWithError wakes a caller already
// blocked waiting for headers.
func TestResetWakesHeaderWait(t *testing.T) {
	st := newTestStream(t)
	done := make(chan error, 1)
	go func() {
		_, err := st.awaitHeaders()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it block; either order must pass
	st.closeWithError(ErrPeerClosed)
	select {
	case err := <-done:
		if !errors.Is(err, ErrPeerClosed) {
			t.Fatalf("awaitHeaders = %v, want %v", err, ErrPeerClosed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("closeWithError did not wake the header wait")
	}
}

// TestContextAfterStreamDeath: the stream context is built on demand,
// so one first asked for after the stream died must be born canceled;
// one handed out earlier is canceled by the death; and a stream nobody
// asks never builds one.
func TestContextAfterStreamDeath(t *testing.T) {
	st := newTestStream(t)
	st.closeWithError(ErrPeerClosed)
	if st.ctx != nil {
		t.Fatal("a context was built though nobody asked for one")
	}
	select {
	case <-st.Context().Done():
	default:
		t.Fatal("Context() of a dead stream is not canceled")
	}

	st = newTestStream(t)
	ctx := st.Context()
	if ctx.Err() != nil {
		t.Fatal("live stream's context already canceled")
	}
	st.Close()
	if ctx.Err() == nil {
		t.Fatal("Close did not cancel the context handed out before it")
	}
	if st.Context() != ctx {
		t.Fatal("Context() is not stable across calls")
	}
}
