package http2

import (
	"testing"
	"time"
)

// Regression tests for WINDOW_UPDATE overflow handling (RFC 9113
// §6.9.1): a window driven beyond 2^31-1 is a FLOW_CONTROL_ERROR on
// the connection (stream 0) or the stream, and the rejected increment
// must leave the window unmodified.

// TestSendFlowAddOverflowLeavesWindowIntact: add used to mutate the
// window before the bounds check, so a rejected increment left the
// window corrupted above 2^31-1 — visible to any writer that raced
// the teardown.
func TestSendFlowAddOverflowLeavesWindowIntact(t *testing.T) {
	f := newSendFlow(1<<31 - 1)
	if f.add(1) {
		t.Fatal("add(1) at max window should report overflow")
	}
	if got := f.available(); got != 1<<31-1 {
		t.Fatalf("window = %d after rejected add, want %d (unmodified)", got, int64(1<<31-1))
	}
	// A legal increment after a rejected one still works.
	f2 := newSendFlow(100)
	if !f2.add(50) {
		t.Fatal("legal add rejected")
	}
	if got := f2.available(); got != 150 {
		t.Fatalf("window = %d, want 150", got)
	}
	if !f2.wouldOverflow(1<<31 - 1) {
		t.Fatal("wouldOverflow missed an overflow")
	}
	if got := f2.available(); got != 150 {
		t.Fatalf("window = %d after wouldOverflow, want 150 (read-only)", got)
	}
}

// TestWindowUpdateOverflowConn: an overflowing WINDOW_UPDATE on
// stream 0 is a connection error with FLOW_CONTROL_ERROR.
func TestWindowUpdateOverflowConn(t *testing.T) {
	p := dialRaw(t, HandlerFunc(okHandler))
	p.nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	// The connection send window starts at 65535, so a 2^31-1
	// increment overflows.
	if err := p.fr.WriteWindowUpdate(0, 1<<31-1); err != nil {
		t.Fatal(err)
	}
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeFlowControl {
		t.Fatalf("GOAWAY code %v, want FLOW_CONTROL_ERROR", code)
	}
}

// TestWindowUpdateOverflowStream: an overflowing WINDOW_UPDATE on a
// live stream resets that stream with FLOW_CONTROL_ERROR.
func TestWindowUpdateOverflowStream(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	p := dialRaw(t, HandlerFunc(func(w *ResponseWriter, r *Request) {
		<-block
		w.WriteHeaders(200)
	}))
	p.nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	p.request(1, "/")
	if err := p.fr.WriteWindowUpdate(1, 1<<31-1); err != nil {
		t.Fatal(err)
	}
	fr := p.readUntil(FrameRSTStream, FrameGoAway)
	if fr.Type != FrameRSTStream {
		t.Fatalf("got %v, want RST_STREAM (stream-local error)", fr.Type)
	}
	if code := rstCode(fr); code != ErrCodeFlowControl {
		t.Fatalf("RST code %v, want FLOW_CONTROL_ERROR", code)
	}
}

// TestWindowUpdateOverflowDuringFlood: the abuse ledger drops
// over-budget WINDOW_UPDATEs, but a drop must not mask the overflow
// violation — an attacker could otherwise push the window past
// 2^31-1 unpunished by simply flooding first. Regression: the ledger
// gate used to return before the overflow check.
func TestWindowUpdateOverflowDuringFlood(t *testing.T) {
	p := dialRawCfg(t, Config{}, HandlerFunc(okHandler))
	p.nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	// Blow the budget (est > 4000 → AbuseIgnore: frames are dropped,
	// the connection stays up) without approaching the window bound...
	for i := 0; i < 4010; i++ {
		if err := p.fr.WriteWindowUpdate(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// ...then send an overflowing increment while over budget.
	if err := p.fr.WriteWindowUpdate(0, 1<<31-1); err != nil {
		t.Fatal(err)
	}
	ga := p.readUntil(FrameGoAway)
	if code := goAwayCode(ga); code != ErrCodeFlowControl {
		t.Fatalf("GOAWAY code %v, want FLOW_CONTROL_ERROR (overflow masked by abuse drop)", code)
	}
}
