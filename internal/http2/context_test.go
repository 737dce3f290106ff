package http2

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestStreamContext: a handler's stream context, asked for before or
// after the stream dies — by the peer's RST_STREAM, a local Close, or
// the server's GOAWAY and teardown — is done, reports
// context.Canceled as its error and its cause, and cancels a
// context.WithTimeout derived from it with the same error. Deriving
// that child starts no goroutine (the stream context offers AfterFunc),
// and once the stream is dead the goroutine count falls back to where
// it was before the child existed.
func TestStreamContext(t *testing.T) {
	events := []struct {
		name string
		fire func(st *Stream, sc *ServerConn, cancelRequest context.CancelFunc)
	}{
		{"peer-reset", func(_ *Stream, _ *ServerConn, cancelRequest context.CancelFunc) {
			cancelRequest() // the client resets the stream
		}},
		{"local-close", func(st *Stream, _ *ServerConn, _ context.CancelFunc) {
			st.Close()
		}},
		{"goaway", func(_ *Stream, sc *ServerConn, _ context.CancelFunc) {
			sc.Close() // GOAWAY(NO_ERROR), then the connection's teardown
		}},
	}
	for _, ev := range events {
		for _, before := range []bool{true, false} {
			name := ev.name + "/asked-after"
			if before {
				name = ev.name + "/asked-before"
			}
			t.Run(name, func(t *testing.T) {
				handled := make(chan *Stream, 1)
				release := make(chan struct{})
				h := HandlerFunc(func(w *ResponseWriter, r *Request) {
					handled <- r.Stream()
					<-release
				})
				cc, sc := startPair(t, Config{}, Config{}, h)
				reqCtx, cancelRequest := context.WithCancel(context.Background())
				defer cancelRequest()
				got := make(chan error, 1)
				go func() {
					_, err := cc.GetContext(reqCtx, "/wait")
					got <- err
				}()
				st := <-handled
				defer close(release)

				base := runtime.NumGoroutine()
				var ctx, child context.Context
				var stop context.CancelFunc
				derive := func() {
					ctx = st.Context()
					child, stop = context.WithTimeout(ctx, time.Hour)
				}
				if before {
					derive()
					defer stop()
					if n := runtime.NumGoroutine(); n > base {
						t.Fatalf("context.WithTimeout of the stream context started %d goroutines", n-base)
					}
					if ctx.Err() != nil || child.Err() != nil {
						t.Fatalf("live stream: Err() = %v, child's %v", ctx.Err(), child.Err())
					}
				}
				ev.fire(st, sc, cancelRequest)
				waitCond(t, "the stream to die", func() bool {
					st.mu.Lock()
					defer st.mu.Unlock()
					return st.err != nil
				})
				if !before {
					derive()
					defer stop()
				}
				for _, c := range []struct {
					what string
					ctx  context.Context
				}{{"stream context", ctx}, {"WithTimeout child", child}} {
					select {
					case <-c.ctx.Done():
					case <-time.After(5 * time.Second):
						t.Fatalf("%s: Done not closed after the stream died", c.what)
					}
					if err := c.ctx.Err(); err != context.Canceled {
						t.Errorf("%s: Err() = %v, want %v", c.what, err, context.Canceled)
					}
					if err := context.Cause(c.ctx); err != context.Canceled {
						t.Errorf("%s: Cause = %v, want %v", c.what, err, context.Canceled)
					}
				}
				if d, ok := ctx.Deadline(); ok {
					t.Errorf("stream context has deadline %v", d)
				}
				if err := <-got; err == nil {
					t.Error("the request succeeded on a dead stream")
				}
				waitCond(t, "the goroutine count to return to its baseline", func() bool {
					return runtime.NumGoroutine() <= base
				})
			})
		}
	}
}
