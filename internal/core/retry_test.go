package core

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/http2"
)

// Regression tests for the retry bug sweep: Retry-After limited to
// delta-seconds, and a Retry-After wait that overshoots the caller's
// deadline; and the backoff schedule.

// TestRetryDelaySchedule: the backoff starts at RetryBaseDelay and
// doubles after each attempt until RetryMaxDelay caps it.
func TestRetryDelaySchedule(t *testing.T) {
	want := []time.Duration{10, 20, 40, 80, 160, 320, 500, 500, 500}
	for i, w := range want {
		if d := retryDelay(i + 1); d != w*time.Millisecond {
			t.Errorf("retryDelay(%d) = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
	if d := retryDelay(1000); d != RetryMaxDelay {
		t.Errorf("retryDelay(1000) = %v, want the cap %v", d, RetryMaxDelay)
	}
}

// TestParseRetryAfterForms covers the three header shapes: the parser
// used to understand only delta-seconds, so an HTTP-date — the other
// RFC 9110 form — silently became a zero wait.
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name, v string
		want    time.Duration
		ok      bool
	}{
		{"delta-seconds", "5", 5 * time.Second, true},
		{"delta-zero", "0", 0, true},
		{"http-date-future", now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second, true},
		{"http-date-past", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"unparseable", "soon", 0, false},
		{"negative", "-3", 0, false},
		{"empty", "", 0, false},
		{"whitespace", "  120  ", 120 * time.Second, true},
	}
	for _, c := range cases {
		d, ok := parseRetryAfter(c.v, now)
		if d != c.want || ok != c.ok {
			t.Errorf("%s: parseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.name, c.v, d, ok, c.want, c.ok)
		}
	}
}

// TestRetryAfterDeadlineCap: a 503 whose Retry-After lands beyond the
// caller's deadline used to be slept on until the context expired,
// surfacing a bare context error long after the outcome was decided.
// The client must instead fail fast with the busy error.
func TestRetryAfterDeadlineCap(t *testing.T) {
	h2srv := &http2.Server{Handler: http2.HandlerFunc(func(w *http2.ResponseWriter, r *http2.Request) {
		w.WriteHeaders(503, hpack.HeaderField{Name: RetryAfterHeader, Value: "60"})
	})}
	dial := func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		h2srv.StartConn(sEnd)
		return cEnd, nil
	}
	rc := NewResilientClient(dial, device.Laptop, nil,
		RetryPolicy{MaxAttempts: 3})
	defer rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rc.FetchContext(ctx, "/")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fetch succeeded against an always-503 server")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("took %v to fail: the 60s Retry-After was not capped at the 100ms deadline", elapsed)
	}
	var busy *ServerBusyError
	if !errors.As(err, &busy) {
		t.Fatalf("error %v does not unwrap to ServerBusyError", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error %q should name the deadline cap", err)
	}
}
