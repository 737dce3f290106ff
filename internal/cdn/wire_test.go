package cdn

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/http2"
	"sww/internal/workload"
)

// TestPromptFetchWireBytes: a warm fetch of a prompt page — from the
// origin's core.Server, and from an edge's shard — costs exactly
// request HEADERS, response HEADERS and one DATA frame carrying the
// whole body and END_STREAM: no empty DATA frame closes the response,
// and no other frame crosses either way.
func TestPromptFetchWireBytes(t *testing.T) {
	srv := newHAServer(t)
	srv.AddPage(workload.LoadPage(1))
	path := workload.LoadPagePath(1)
	origins := core.NewEndpointSet(core.EndpointHealthConfig{})
	origins.Add("origin", func() (net.Conn, error) {
		cEnd, sEnd := net.Pipe()
		srv.StartConn(sEnd)
		return cEnd, nil
	})
	e := NewEdge(EdgeConfig{Name: "edge1", TTL: time.Hour}, origins)
	defer e.Close()

	const fetches = 5 // the first a miss at the edge, the rest hits
	for _, tc := range []struct {
		name  string
		start func(net.Conn) *http2.ServerConn
	}{
		{"origin", srv.StartConn},
		{"edge-hit", e.StartConn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cEnd, sEnd := net.Pipe()
			sc := tc.start(sEnd)
			defer sc.Close()
			wc := &wireConn{Conn: cEnd}
			cl, err := core.NewClientWithAbility(wc, device.Laptop, nil, http2.GenFull|http2.GenUpscaleOnly)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			fetch := func() *core.RawReply {
				raw, err := cl.FetchRaw(context.Background(), path)
				if err != nil || raw.Status != 200 || raw.Mode != core.ModeGenerative {
					t.Fatalf("fetch: %v %+v", err, raw)
				}
				return raw
			}
			fetch() // the edge's miss; both ends' dynamic tables
			fetch()
			for i := 2; i < fetches; i++ {
				in, out := wc.mark()
				raw := fetch()
				sent, rcvd := wc.since(t, in, out)
				if len(sent) != 1 || sent[0].Type != http2.FrameHeaders || !sent[0].Has(http2.FlagEndStream) {
					t.Errorf("fetch %d: client sent %v, want one HEADERS with END_STREAM", i, headers(sent))
				}
				if len(rcvd) != 2 || rcvd[0].Type != http2.FrameHeaders || rcvd[0].Has(http2.FlagEndStream) ||
					rcvd[1].Type != http2.FrameData || !rcvd[1].Has(http2.FlagEndStream) || int(rcvd[1].Length) != len(raw.Body) {
					t.Errorf("fetch %d: client read %v, want HEADERS and one DATA of the %d-byte body with END_STREAM",
						i, headers(rcvd), len(raw.Body))
				}
				for _, f := range rcvd {
					if f.Type == http2.FrameData && f.Length == 0 {
						t.Errorf("fetch %d: empty DATA frame %v", i, f.FrameHeader)
					}
				}
			}
		})
	}
	// The edge counts a hit once its reply is queued, so the last count
	// may land after the fetch returns.
	deadline := time.Now().Add(5 * time.Second)
	st := e.Stats()
	for ; st.Hits+st.Misses < fetches && time.Now().Before(deadline); st = e.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Misses != 1 || st.Hits != fetches-1 {
		t.Errorf("edge served %d hits and %d misses, want %d and 1", st.Hits, st.Misses, fetches-1)
	}
}

// wireConn keeps every byte a client reads and writes on its conn.
type wireConn struct {
	net.Conn
	mu      sync.Mutex
	in, out []byte
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in = append(c.in, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *wireConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// mark returns how many bytes have been read and written so far.
func (c *wireConn) mark() (in, out int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.in), len(c.out)
}

// since parses the frames written and read after a mark. A fetch has
// returned once its END_STREAM is read, and net.Pipe is synchronous, so
// the frames of a finished fetch are whole; a byte they do not account
// for fails the test.
func (c *wireConn) since(t *testing.T, in, out int) (sent, rcvd []http2.Frame) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	return parseFrames(t, c.out[out:]), parseFrames(t, c.in[in:])
}

func parseFrames(t *testing.T, b []byte) []http2.Frame {
	t.Helper()
	fr := http2.NewFramer(nil, bytes.NewReader(b))
	var out []http2.Frame
	n := 0
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			break
		}
		n += 9 + int(f.Length)
		f.Payload = nil // only the headers are compared
		out = append(out, f)
	}
	if n != len(b) {
		t.Errorf("%d bytes, %d of them in whole frames", len(b), n)
	}
	return out
}

func headers(frames []http2.Frame) []http2.FrameHeader {
	out := make([]http2.FrameHeader, len(frames))
	for i, f := range frames {
		out[i] = f.FrameHeader
	}
	return out
}
