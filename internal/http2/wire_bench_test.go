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
// buffer, which is swapped and never released: 0 allocs/op.
func BenchmarkFramerWrite(b *testing.B) {
	aw := newAsyncWriter(io.Discard)
	defer func() {
		aw.close()
		aw.drain(time.Second)
	}()
	fr := NewFramer(aw, nil)
	block := make([]byte, 48)
	body := make([]byte, 16<<10)
	b.SetBytes(int64(3*frameHeaderLen + len(block) + len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fr.WriteHeaders(1, false, true, block); err != nil {
			b.Fatal(err)
		}
		if err := aw.waitRoom(); err != nil { // as writeData does before DATA
			b.Fatal(err)
		}
		if err := fr.WriteData(1, false, body); err != nil {
			b.Fatal(err)
		}
		if err := fr.WriteData(1, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRespondBody prices the one copy Respond makes of its body:
// a GET answered with Respond and read with ReadAllBody over loopback
// TCP, with windows of 1 MiB on both ends so that the largest body is a
// single flight. It is the ledger row for the by-reference DATA path
// this package used to have, which sent bodies above 4 KiB without that
// copy (BENCH_PR24.json: no difference at 2 and 64 KiB, slower at 1 MiB,
// a size and a window nothing in the tree configures).
func BenchmarkRespondBody(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"2KiB", 2 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			body := make([]byte, size.n)
			length := hpack.HeaderField{Name: "content-length", Value: strconv.Itoa(size.n)}
			cfg := Config{InitialWindowSize: 1 << 20}
			srv := &Server{Config: cfg, Handler: HandlerFunc(func(w *ResponseWriter, r *Request) {
				w.Respond(200, body, length)
			})}
			go srv.Serve(l)
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			cc, err := NewClientConn(nc, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer cc.Close()
			b.SetBytes(int64(size.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := cc.Get("/body")
				if err != nil {
					b.Fatal(err)
				}
				if got, err := ReadAllBody(resp); err != nil || len(got) != size.n {
					b.Fatalf("body of %d bytes, %v", len(got), err)
				}
			}
		})
	}
}
