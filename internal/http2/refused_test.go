package http2

import (
	"io"
	"sync/atomic"
	"testing"
)

// dialRawCfg is dialRaw with an explicit server Config, for tests
// that exercise server-side limits a well-behaved client would never
// hit (the client transport self-limits in openStream).
func dialRawCfg(t *testing.T, cfg Config, h Handler) *rawPeer {
	t.Helper()
	p, _ := dialRawConn(t, cfg, h)
	return p
}

// TestServerRefusesStreamOverLimit drives the server's accept path
// past SETTINGS_MAX_CONCURRENT_STREAMS with a raw framer (a compliant
// client self-limits, so only a misbehaving or overload-racing peer
// reaches this path): the excess stream must be rejected with
// RST_STREAM(REFUSED_STREAM) — not a connection error — while the
// admitted stream keeps working, and the refusal must be observable
// through Config.OnStreamRefused and retryable per Retryable().
func TestServerRefusesStreamOverLimit(t *testing.T) {
	var refused atomic.Int64
	block := make(chan struct{})
	p := dialRawCfg(t, Config{
		MaxConcurrentStreams: 1,
		OnStreamRefused:      func() { refused.Add(1) },
	}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		<-block
		w.WriteHeaders(200)
		io.WriteString(w, "ok")
	}))

	p.request(1, "/")  // admitted, parked in the handler
	p.request(3, "/a") // over the limit → REFUSED_STREAM
	rst := p.readUntil(FrameRSTStream)
	if rst.StreamID != 3 {
		t.Fatalf("RST on stream %d, want 3", rst.StreamID)
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

	// The admitted stream is unaffected: release the handler and the
	// response arrives on stream 1.
	close(block)
	hf := p.readUntil(FrameHeaders)
	if hf.StreamID != 1 {
		t.Fatalf("response on stream %d, want 1", hf.StreamID)
	}
}
