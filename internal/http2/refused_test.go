package http2

import (
	"io"
	"sync/atomic"
	"testing"
)

// dialRawCfg is dialRaw with an explicit server Config and the raw
// peer's SETTINGS, for tests that exercise what a well-behaved client
// would never send (the client transport self-limits in openStream).
func dialRawCfg(t *testing.T, cfg Config, h Handler, settings ...Setting) *rawPeer {
	t.Helper()
	p, _ := dialRawConn(t, cfg, h, settings...)
	return p
}

// TestServerRefusesStreamOverLimit drives the server's accept path
// past SETTINGS_MAX_CONCURRENT_STREAMS (100) with a raw framer (a compliant
// client self-limits, so only a misbehaving or overload-racing peer
// reaches this path): the excess stream must be rejected with
// RST_STREAM(REFUSED_STREAM) — not a connection error — while the
// admitted stream keeps working, and the refusal must be observable
// through Config.OnStreamRefused and retryable per Retryable().
func TestServerRefusesStreamOverLimit(t *testing.T) {
	var refused atomic.Int64
	block := make(chan struct{})
	p := dialRawCfg(t, Config{
		OnStreamRefused: func() { refused.Add(1) },
	}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		<-block
		w.WriteHeaders(200)
		io.WriteString(w, "ok")
	}))

	for i := 0; i < maxPeerStreams; i++ {
		p.request(uint32(1+2*i), "/") // admitted, parked in the handler
	}
	over := uint32(1 + 2*maxPeerStreams)
	p.request(over, "/a") // over the limit → REFUSED_STREAM
	rst := p.readUntil(FrameRSTStream)
	if rst.StreamID != over {
		t.Fatalf("RST on stream %d, want %d", rst.StreamID, over)
	}
	if code := rstCode(rst); code != ErrCodeRefusedStream {
		t.Fatalf("RST code %v, want REFUSED_STREAM", code)
	}
	if got := refused.Load(); got != 1 {
		t.Errorf("OnStreamRefused fired %d times, want 1", got)
	}

	// REFUSED_STREAM guarantees the request was not processed
	// (RFC 9113 §8.7), so the error must classify as retryable.
	if err := (streamError(3, ErrCodeRefusedStream, "limit")); !Retryable(err) {
		t.Errorf("REFUSED_STREAM not Retryable: %v", err)
	}

	// The admitted streams are unaffected: release their handlers and
	// a response arrives on one of them.
	close(block)
	hf := p.readUntil(FrameHeaders)
	if hf.StreamID >= over {
		t.Fatalf("response on stream %d, want an admitted one", hf.StreamID)
	}
}
