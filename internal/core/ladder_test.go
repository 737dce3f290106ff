package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sww/internal/device"
	"sww/internal/http2"
)

// TestLadderOutcomes drives one scripted attempt func through every
// rung of the retry ladder, once per fetch flavor: the page and the
// raw entry points share the loop, so the outcome, the attempt count
// and the wording must agree between them in every case.
func TestLadderOutcomes(t *testing.T) {
	const path = "/p"
	reset := &http2.TransportError{Op: "read", Err: errors.New("connection reset")}
	fatal := http2.ConnectionError{Code: http2.ErrCodeProtocol, Reason: "bad frame"}
	genFail := &GenerationError{Err: errors.New("model crashed")}
	busy := func(after time.Duration) error { return &ServerBusyError{Path: path, RetryAfter: after} }

	cases := []struct {
		name     string
		script   []error // what successive attempts return; nil succeeds
		burst    int     // retry budget bucket depth; 0: unlimited
		deadline time.Duration
		attempts int
		degraded bool
		wantErr  string // substring after the "core: <flavor> <path>: " prefix; "" means success
		wantIs   error
	}{
		{name: "clean", script: []error{nil}, attempts: 1},
		{name: "busy", script: []error{busy(3 * time.Millisecond), nil}, attempts: 2},
		{name: "retryable", script: []error{reset, nil}, attempts: 2},
		{name: "degrade", script: []error{genFail, nil}, attempts: 2, degraded: true},
		{name: "fatal", script: []error{fatal}, attempts: 1, wantIs: fatal},
		{name: "exhausted", script: []error{reset, reset, reset}, attempts: 3,
			wantErr: "3 attempts exhausted", wantIs: reset},
		{name: "budget-exhausted", script: []error{reset, reset}, burst: 1, attempts: 2,
			wantErr: "retry budget exhausted", wantIs: ErrRetryBudgetExhausted},
		{name: "budget-exhausted-busy", script: []error{busy(0), busy(0)}, burst: 1, attempts: 2,
			wantErr: "retry budget exhausted", wantIs: ErrRetryBudgetExhausted},
		{name: "deadline-capped", script: []error{busy(time.Minute)}, deadline: time.Second, attempts: 1,
			wantErr: "retry wait 1m0s exceeds deadline"},
	}
	for _, tc := range cases {
		for _, what := range []string{"fetch", "raw fetch"} {
			t.Run(tc.name+"/"+what, func(t *testing.T) {
				rc := NewResilientClient(nil, device.Workstation, nil,
					RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
				if tc.burst > 0 {
					rc.SetRetryBudget(NewRetryBudget(0.1, tc.burst))
				}
				ctx := context.Background()
				if tc.deadline > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, tc.deadline)
					defer cancel()
				}
				calls, sawDegraded := 0, false
				start := time.Now()
				attempts, reason, err := rc.ladder(ctx, what, path, func(_ context.Context, degraded bool) error {
					sawDegraded = sawDegraded || degraded
					calls++
					return tc.script[calls-1]
				})
				if calls != tc.attempts || sawDegraded != tc.degraded {
					t.Errorf("made %d attempts (degraded %v), want %d (%v)", calls, sawDegraded, tc.attempts, tc.degraded)
				}
				if tc.wantErr == "" && tc.wantIs == nil {
					if err != nil {
						t.Fatalf("error %v, want success", err)
					}
					if attempts != tc.attempts || (reason != "") != tc.degraded {
						t.Errorf("reported %d attempts and degrade reason %q, want %d and degraded %v",
							attempts, reason, tc.attempts, tc.degraded)
					}
					return
				}
				if err == nil {
					t.Fatal("succeeded, want an error")
				}
				if tc.wantErr != "" {
					if want := "core: " + what + " " + path + ": "; !strings.HasPrefix(err.Error(), want) ||
						!strings.Contains(err.Error(), tc.wantErr) {
						t.Errorf("error %q, want prefix %q and %q", err, want, tc.wantErr)
					}
				}
				if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
					t.Errorf("error %v does not wrap %v", err, tc.wantIs)
				}
				if tc.deadline > 0 && time.Since(start) >= tc.deadline {
					t.Errorf("slept out the deadline instead of failing fast")
				}
			})
		}
	}
}

// TestLadderAttemptTimeout: an attempt that outlives the policy's
// per-attempt deadline is a retryable transport fault, not the
// caller's deadline — for both entry points, end to end.
func TestLadderAttemptTimeout(t *testing.T) {
	var dials atomic.Int32
	rc := NewResilientClient(func() (net.Conn, error) {
		dials.Add(1)
		c, _ := net.Pipe() // nobody serves the far end: the handshake hangs
		return c, nil
	}, device.Workstation, nil, RetryPolicy{MaxAttempts: 2, AttemptTimeout: 10 * time.Millisecond, BaseDelay: time.Millisecond})
	defer rc.Close()
	_, pageErr := rc.FetchContext(context.Background(), "/p")
	_, rawErr := rc.FetchRawContext(context.Background(), "/p")
	for what, err := range map[string]error{"fetch": pageErr, "raw fetch": rawErr} {
		if err == nil || !strings.HasPrefix(err.Error(), "core: "+what+" /p: 2 attempts exhausted") || !http2.Retryable(err) {
			t.Errorf("%s: error %v, want 2 retryable attempts exhausted", what, err)
		}
	}
	if got := dials.Load(); got != 4 {
		t.Errorf("dialed %d times, want 2 per fetch", got)
	}
}

// TestConnectCancelBooksNothing: a caller that gives up while its
// connect is still dialing books no failure against the endpoint and
// gets its own cancellation back. Three such callers against a
// threshold of three used to write a healthy endpoint off. A
// cancelled probe gives its slot back, so the next caller probes.
func TestConnectCancelBooksNothing(t *testing.T) {
	srv, err := NewServer("", "")
	if err != nil {
		t.Fatal(err)
	}
	set := NewEndpointSet(EndpointHealthConfig{FailureThreshold: 3, ProbeCooldown: time.Millisecond})
	ep := set.Add("slow", func() (net.Conn, error) {
		time.Sleep(30 * time.Millisecond)
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	})
	rc := NewResilientClientEndpoints(set, device.Workstation, nil, RetryPolicy{MaxAttempts: 1})
	defer rc.Close()
	cancelled := func(what string) {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(5*time.Millisecond, cancel)
		_, err := rc.FetchRawContext(ctx, "/")
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v, want context.Canceled", what, err)
		}
	}
	for i := 0; i < 3; i++ {
		cancelled(fmt.Sprintf("cancelled fetch %d", i))
	}
	if h := ep.Health(); !h.Healthy || h.ConsecutiveFailures != 0 || h.Failures != 0 {
		t.Fatalf("after three cancelled connects: %+v, want healthy with no failures", h)
	}

	ep.br.Trip()
	time.Sleep(2 * time.Millisecond) // past the cooldown: the next connect is the probe
	cancelled("cancelled probe")
	if _, err := rc.FetchRawContext(context.Background(), "/"); err != nil {
		t.Fatalf("probe after the cancelled one: %v", err)
	}
	if h := ep.Health(); !h.Healthy || h.Probes != 2 || h.Failures != 0 {
		t.Fatalf("after the probes: %+v, want healthy after 2 probes and no failures", h)
	}
}
