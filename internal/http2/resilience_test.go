package http2

// Resilience tests: keepalive health checks, context-governed
// requests, and the retryable-vs-fatal error taxonomy.

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sww/internal/hpack"
)

// deadPeer completes the preface/SETTINGS handshake on nc and then
// goes silent: it drains incoming frames but never answers a PING.
func deadPeer(t *testing.T, nc net.Conn) {
	t.Helper()
	if _, err := io.WriteString(nc, ClientPreface); err != nil {
		t.Fatal(err)
	}
	fr := NewFramer(nc, nc)
	if err := fr.WriteSettings(); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, nc)
}

func TestKeepAliveClosesDeadPeer(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	srv := &Server{
		Handler: HandlerFunc(func(w *ResponseWriter, r *Request) { w.Write([]byte("ok")) }),
		Config: Config{
			KeepAliveInterval: 40 * time.Millisecond,
			KeepAliveTimeout:  60 * time.Millisecond,
		},
	}
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(sEnd) }()
	deadPeer(t, cEnd)
	select {
	case <-served:
		// The keepalive detected the silent peer and tore the
		// connection down instead of leaking it.
	case <-time.After(3 * time.Second):
		t.Fatal("server never closed the dead peer")
	}
}

func TestKeepAliveSparesHealthyPeer(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	srv := &Server{
		Handler: HandlerFunc(func(w *ResponseWriter, r *Request) { w.Write([]byte("ok")) }),
		Config: Config{
			KeepAliveInterval: 25 * time.Millisecond,
			KeepAliveTimeout:  200 * time.Millisecond,
		},
	}
	sc := srv.StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	// A healthy client answers PINGs from its read loop; several
	// keepalive intervals later the connection must still serve.
	time.Sleep(150 * time.Millisecond)
	resp, err := cc.Get("/")
	if err != nil {
		t.Fatalf("conn died under keepalive despite healthy peer: %v", err)
	}
	if body, _ := ReadAllBody(resp); string(body) != "ok" {
		t.Errorf("body = %q", body)
	}
	select {
	case <-sc.Done():
		t.Fatal("healthy conn was torn down by keepalive")
	default:
	}
}

func TestRequestContextDeadline(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	release := make(chan struct{})
	defer close(release)
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		<-release // never responds within the deadline
	})}
	srv.StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cc.GetContext(ctx, "/slow")
	if err == nil {
		t.Fatal("request succeeded despite stalled handler")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded in chain", err)
	}
	if time.Since(start) > time.Second {
		t.Errorf("cancellation took %v", time.Since(start))
	}
}

func TestBodyReadContextDeadline(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	release := make(chan struct{})
	defer close(release)
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200, hpack.HeaderField{Name: "content-type", Value: "text/plain"})
		w.Write([]byte("partial"))
		<-release // stalls mid-body, END_STREAM never sent
	})}
	srv.StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	resp, err := cc.Get("/stall")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = ReadAllBodyContext(ctx, resp)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("body read err = %v, want DeadlineExceeded", err)
	}
}

// TestBodyCanceledAfterHeaders: the one cancel hook DoContext
// registers outlives the response headers, so a context canceled with
// the body still in flight unwinds ReadAllBodyContext under it with
// ctx.Err(), though that read registers no hook of its own.
func TestBodyCanceledAfterHeaders(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	release := make(chan struct{})
	defer close(release)
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.WriteHeaders(200, hpack.HeaderField{Name: "content-type", Value: "text/plain"})
		w.Write([]byte("partial"))
		<-release // stalls mid-body, END_STREAM never sent
	})}
	srv.StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	resp, err := cc.GetContext(ctx, "/stall")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := ReadAllBodyContext(ctx, resp); err != context.Canceled {
		t.Errorf("body read err = %v, want context.Canceled", err)
	}
}

func TestCloseContextHonorsDeadline(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	srv := &Server{Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {})}
	srv.StartConn(sEnd)
	cc, err := NewClientConn(cEnd, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	cc.CloseContext(ctx)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("CloseContext took %v despite 100ms deadline", elapsed)
	}
}

func TestRetryableTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"transport", &TransportError{Op: "read", Err: io.ErrUnexpectedEOF}, true},
		{"goaway", GoAwayError{LastStreamID: 3, Code: ErrCodeNo}, true},
		{"refused-stream", StreamError{StreamID: 5, Code: ErrCodeRefusedStream}, true},
		{"protocol-stream", StreamError{StreamID: 5, Code: ErrCodeProtocol}, false},
		{"conn-error", ConnectionError{Code: ErrCodeProtocol}, false},
		{"ping-timeout", ErrPingTimeout, true},
		{"peer-closed", ErrPeerClosed, true},
		{"writer-closed", errWriterClosed, true}, // a request that lost the race with teardown
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"net-closed", net.ErrClosed, true},
		{"ctx-canceled", context.Canceled, false},
		{"ctx-deadline", context.DeadlineExceeded, false},
		{"wrapped-ctx-in-transport", &TransportError{Op: "read", Err: context.Canceled}, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
