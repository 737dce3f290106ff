package http2

import (
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"sww/internal/hpack"
)

// BenchmarkFramerWrite measures the frame-emission hot path in
// isolation: one HEADERS fragment, one full 16 KiB DATA frame, and
// the empty END_STREAM DATA marker per op, written through the
// asyncWriter exactly as conn does. Frames are built in the writer's
// buffer, which is swapped and never released: 0 allocs/op
// (TestFramerAllocs).
func BenchmarkFramerWrite(b *testing.B) {
	op := framerWrite(b)
	b.SetBytes(int64(3*frameHeaderLen + 48 + 16<<10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// framerWrite returns one op of BenchmarkFramerWrite; tb's cleanup
// stops the writer.
func framerWrite(tb testing.TB) func() {
	aw := newAsyncWriter(io.Discard)
	tb.Cleanup(func() {
		aw.close()
		aw.drain(time.Second)
	})
	fr := NewFramer(aw, nil)
	block := make([]byte, 48)
	body := make([]byte, 16<<10)
	return func() {
		if err := fr.WriteHeaders(1, false, true, block); err != nil {
			tb.Fatal(err)
		}
		if err := aw.waitRoom(); err != nil { // as writeData does before DATA
			tb.Fatal(err)
		}
		if err := fr.WriteData(1, false, body); err != nil {
			tb.Fatal(err)
		}
		if err := fr.WriteData(1, true, nil); err != nil {
			tb.Fatal(err)
		}
	}
}

// respondBodySizes are the bodies BenchmarkRespondBody sends.
var respondBodySizes = []struct {
	name string
	n    int
}{{"2KiB", 2 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}}

// BenchmarkRespondBody prices the one copy Respond makes of its body:
// a GET answered with Respond and read with ReadAllBody over loopback
// TCP, with windows of 1 MiB on both ends so that the largest body is a
// single flight. It is the ledger row for the by-reference DATA path
// this package used to have, which sent bodies above 4 KiB without that
// copy (BENCH_PR24.json: no difference at 2 and 64 KiB, slower at 1 MiB,
// a size and a window nothing in the tree configures). Its allocations
// are pinned by TestGetAllocBudget.
func BenchmarkRespondBody(b *testing.B) {
	for _, size := range respondBodySizes {
		b.Run(size.name, func(b *testing.B) {
			get := respondBodyGet(b, size.n)
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}

// respondBodyGet serves an n-byte body from a handler goroutine over
// loopback TCP and returns one GET of it, read with ReadAllBody; tb's
// cleanup closes the listener and the client.
func respondBodyGet(tb testing.TB, n int) func() {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	body := make([]byte, n)
	length := hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(n)}
	cfg := Config{InitialWindowSize: 1 << 20}
	srv := &Server{Config: cfg, Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
		w.Respond(200, body, length)
	})}
	go srv.Serve(l)
	nc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	cc, err := NewClientConn(nc, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cc.Close() })
	return func() {
		resp, err := cc.Get("/body")
		if err != nil {
			tb.Fatal(err)
		}
		if got, err := ReadAllBody(resp); err != nil || len(got) != n {
			tb.Fatalf("body of %d bytes, %v", len(got), err)
		}
	}
}
