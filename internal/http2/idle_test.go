package http2

// A handler goroutine that finishes its stream parks on its connection
// for the next declined stream (conn.park): these tests pin that it
// ends with the connection, outlives a panic, never holds back a second
// stream, and is not waited for by a drain.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sww/internal/hpack"
)

// getBody fetches path on cc and returns its body.
func getBody(t *testing.T, cc *ClientConn, path string) string {
	t.Helper()
	resp, err := cc.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := ReadAllBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestParkedHandlerEndsWithConn: a connection whose handler goroutine
// is parked returns the goroutine count to its baseline once either end
// closes it.
func TestParkedHandlerEndsWithConn(t *testing.T) {
	for _, closer := range []string{"peer", "server"} {
		t.Run(closer, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cc, sc := startPair(t, Config{}, Config{}, HandlerFunc(okHandler))
			for range 3 {
				if body := getBody(t, cc, "/"); body != "ok" {
					t.Fatalf("body %q", body)
				}
			}
			waitCond(t, "the handler to park", sc.c.parked.Load)
			if closer == "peer" {
				cc.Close()
			} else {
				sc.Close()
			}
			<-sc.Done()
			waitCond(t, "the goroutine count to return to its baseline", func() bool {
				return runtime.NumGoroutine() <= base
			})
		})
	}
}

// TestParkedHandlerSurvivesPanic: a handler that panics gets its 500
// and RST_STREAM(INTERNAL_ERROR) as before, its goroutine parks, and the
// connection's next declined request is answered 200.
func TestParkedHandlerSurvivesPanic(t *testing.T) {
	p, c := dialRawConn(t, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Path == "/boom" {
			panic("boom")
		}
		okHandler(w, r)
	}))
	dec := hpack.NewDecoder(0)
	status := func(fr Frame) string {
		t.Helper()
		fields, err := dec.Decode(fr.Payload)
		if err != nil || len(fields) == 0 || fields[0].Name != ":status" {
			t.Fatalf("response header block %v, %v", fields, err)
		}
		return fields[0].Value
	}

	p.request(1, "/boom")
	if fr := p.nextFrame(); fr.Type != FrameHeaders || fr.StreamID != 1 || status(fr) != "500" {
		t.Fatalf("got %v, want the 500's HEADERS on stream 1", fr.FrameHeader)
	}
	if fr := p.nextFrame(); fr.Type != FrameRSTStream || fr.StreamID != 1 || rstCode(fr) != ErrCodeInternal {
		t.Fatalf("got %v, want RST_STREAM(INTERNAL_ERROR) on stream 1", fr.FrameHeader)
	}
	waitCond(t, "the panicked handler to park", c.parked.Load)

	p.request(3, "/ok")
	if fr := p.nextFrame(); fr.Type != FrameHeaders || fr.StreamID != 3 || status(fr) != "200" {
		t.Fatalf("got %v, want the 200's HEADERS on stream 3", fr.FrameHeader)
	}
	if fr := p.readUntil(FrameData); fr.StreamID != 3 || string(fr.Payload) != "ok" {
		t.Fatalf("got %v %q, want stream 3's body", fr.FrameHeader, fr.Payload)
	}
}

// TestBlockedHandlerHoldsNoStream: while the parked handler serves a
// request that blocks, the connection's next declined request gets a
// goroutine of its own and its answer. Once both are done one handler
// is parked again, not two.
func TestBlockedHandlerHoldsNoStream(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	cc, sc := startPair(t, Config{}, Config{}, HandlerFunc(func(w *ResponseWriter, r *Request) {
		if r.Path == "/block" {
			entered <- struct{}{}
			<-release
		}
		okHandler(w, r)
	}))
	getBody(t, cc, "/")
	waitCond(t, "the handler to park", sc.c.parked.Load)
	oneParked := runtime.NumGoroutine()

	fetch := func(path string) <-chan string {
		got := make(chan string, 1)
		go func() {
			resp, err := cc.Get(path)
			if err != nil {
				got <- err.Error()
				return
			}
			body, _ := ReadAllBody(resp)
			got <- string(body)
		}()
		return got
	}
	blocked := fetch("/block")
	<-entered // /block holds the goroutine that was parked
	freed := fetch("/free")
	select {
	case body := <-freed:
		if body != "ok" {
			t.Fatalf("/free: %q", body)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("/free waited for the blocked handler")
	}
	close(release)
	if body := <-blocked; body != "ok" {
		t.Fatalf("/block: %q", body)
	}
	waitCond(t, "one parked handler, not two", func() bool {
		return runtime.NumGoroutine() <= oneParked
	})
}

// TestDrainSkipsParkedHandler: a graceful close (GOAWAY, then the
// writer's drain under the caller's deadline) of a connection whose
// handler is parked returns long before the deadline, as for an idle
// connection: the parked goroutine is no request in flight.
func TestDrainSkipsParkedHandler(t *testing.T) {
	base := runtime.NumGoroutine()
	cc, sc := startPair(t, Config{}, Config{}, HandlerFunc(okHandler))
	getBody(t, cc, "/")
	waitCond(t, "the handler to park", sc.c.parked.Load)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	closed := make(chan error, 1)
	go func() { closed <- sc.CloseContext(ctx) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the drain waited on the parked handler")
	}
	<-sc.Done()
	cc.Close()
	waitCond(t, "the goroutine count to return to its baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}
