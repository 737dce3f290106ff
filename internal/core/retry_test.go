package core

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/hpack"
	"sww/internal/http2"
)

// Regression tests for the retry bug sweep: jittered delays collapsing
// to ~0 (hot retry loop), Retry-After limited to delta-seconds, and a
// Retry-After wait that overshoots the caller's deadline.

// TestRetryDelayJitterBoundaries: delay used to scale the backoff by
// 1 + J*(2*rand-1) with no floor, so Jitter near 1.0 could produce a
// ~0 delay (and Jitter > 1 a negative one), turning the retry loop
// into a hot loop. Every draw must now land in [floor, MaxDelay],
// with floor = max(1ms, BaseDelay/4).
func TestRetryDelayJitterBoundaries(t *testing.T) {
	const (
		base = 8 * time.Millisecond
		maxd = 50 * time.Millisecond
	)
	floor := base / 4 // 2ms > the 1ms absolute floor
	for _, jitter := range []float64{-1, 0, 0.25, 0.999, 1.0, 1.5} {
		p := RetryPolicy{BaseDelay: base, MaxDelay: maxd, Jitter: jitter}
		rng := rand.New(rand.NewSource(1))
		for attempt := 1; attempt <= 4; attempt++ {
			for i := 0; i < 500; i++ {
				d := p.delay(attempt, rng)
				if d < floor {
					t.Fatalf("Jitter=%v attempt=%d: delay %v below floor %v", jitter, attempt, d, floor)
				}
				if d > maxd {
					t.Fatalf("Jitter=%v attempt=%d: delay %v above MaxDelay %v", jitter, attempt, d, maxd)
				}
			}
		}
	}
	// The floor itself is capped at MaxDelay for tiny policies.
	p := RetryPolicy{BaseDelay: 40 * time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 1}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		if d := p.delay(1, rng); d > 5*time.Millisecond {
			t.Fatalf("delay %v exceeds MaxDelay when BaseDelay/4 > MaxDelay", d)
		}
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
		RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 3})
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
